"""Bell-gap walkthrough on the tilted one-parameter family.

Simulates finite counts from a weakly entangled two-qubit state, scores
the matching tilted inequality on them, then lets the gap optimizer
search the coefficient box for something strictly better.  Closes with
the detection-efficiency thresholds of the standard maximally
entangled configuration.
"""
import numpy as np

from qoptools import bell


def simulated_counts(alpha, per_setting, rng):
    fam = bell.tilted_inequality(alpha)
    behavior = bell.behavior_from_state(fam.state, fam.settings_a, fam.settings_b)
    return fam, bell.CountsTable.sample(behavior, per_setting, rng)


if __name__ == "__main__":
    rng = np.random.default_rng(2)

    # alpha near 2: low concurrence, tiny violation of the tilted bound
    fam, counts = simulated_counts(1.736, 1e5, rng)
    q, dq = bell.quantum_value(fam.inequality, counts)
    classical = bell.lhv_bound(fam.inequality)
    print(f"tilted inequality at alpha=1.736: C={classical:.4f}")
    print(f"  measured Q = {q:.4f} +- {dq:.4f}")
    print(f"  ratio (Q - dQ)/C = {(q - dq) / classical:.6f}")

    best = bell.maximize_gap(counts)
    print("optimizer on the same counts:")
    print(f"  R = {best.ratio:.6f}  (Q = {best.quantum:.4f}, C = {best.classical:.4f})")
    print(f"  no inequality in the box beats R by more than {best.upper_bound - best.ratio:.1e}"
          f" ({best.rounds} linear programs)")
    print("  " + bell.format_inequality(best.inequality))

    # maximally entangled reference point
    fam0, counts0 = simulated_counts(0.0, 1e6, rng)
    canon = bell.canonical_form(fam0.inequality, scale=0.25)
    behavior0 = counts0.behavior()
    sym = bell.efficiency_threshold(canon, behavior0, mode="symmetric")
    asym = bell.efficiency_threshold(canon, behavior0, mode="asymmetricB1")
    print(f"detector thresholds at alpha=0: symmetric {sym:.4f}, one-sided {asym:.4f}")
