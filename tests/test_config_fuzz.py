"""Seeded typed mutations of every bundled command config, each run through the CLI.

The mutator takes each bundled command config, with the files it names
read in, and applies one typed mutation per case: drop a key or list
entry, change a value's JSON type, set it to null, empty a list, set a
number to 0, negative, huge or boolean, make a string another string,
or point a file reference at a missing file.  Every top-level key gets
every mutation that fits its value; deeper values are sampled with a
fixed seed, so the case list is fixed.  Run budgets the config sets are
cut (BUDGETS) so that a mutated config that still runs ends within a
second, and a budget is never dropped: its default (50,000 qmp-solve
iterations, 1,000 qmp-sweep trials) is a valid run of seconds to minutes.

Each case runs in-process through ``cli.main`` and must end with exit
0, 1 or 2 and no exception; exit 0 or 2 must leave a result.json that a
strict JSON parser reads.
"""
import contextlib
import copy
import io
import json
import os
import random

import pytest

from qoptools import cli

from test_cli import CONFIGS, config_command

SEED = 2026
DEEP_CASES_PER_CONFIG = 14
BUDGETS = {"max_iterations": 10, "trials": 10}
HUGE = {int: 2**63, float: 1e300}  # one past int64; near the largest double
RETYPED = {
    dict: lambda v: list(v.values()),
    list: lambda v: {str(i): x for i, x in enumerate(v)},
    str: lambda v: [v],
    int: str,
    float: str,
    bool: lambda v: json.dumps(v),
    type(None): lambda v: 0,
}


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _base(name):
    """The config with every file it names read in, and the paths of those entries."""
    cfg, refs = _read(os.path.join(CONFIGS, name)), []
    for key, value in cfg.items():
        if key in BUDGETS:
            cfg[key] = min(value, BUDGETS[key])
        elif isinstance(value, str) and os.path.isfile(os.path.join(CONFIGS, value)):
            cfg[key] = _read(os.path.join(CONFIGS, value))
            refs.append((key,))
    return cfg, refs


def _paths(node, prefix=()):
    """(path, value) of every dict entry and list item below node, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _kinds(path, value, refs):
    kinds = ["retype", "null"] if path[0] in BUDGETS else ["drop", "retype", "null"]
    if path in refs:
        kinds.append("dangle")
    if isinstance(value, list):
        kinds.append("empty")
    if isinstance(value, str):
        kinds.append("bogus")
    if type(value) in HUGE:
        kinds += ["negative", "huge", "boolean"] + (["zero"] if value else [])
    return kinds


def mutate(cfg, path, kind):
    """A copy of cfg with the value at path changed by kind."""
    cfg = copy.deepcopy(cfg)
    holder = cfg
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    value = holder[key]
    if kind == "drop":
        del holder[key]
        return cfg
    holder[key] = {
        "retype": lambda: RETYPED[type(value)](value),
        "null": lambda: None,
        "dangle": lambda: "missing.json",
        "empty": lambda: [],
        "bogus": lambda: "bogus",
        "zero": lambda: type(value)(0),
        "negative": lambda: type(value)(-1 - abs(value)),
        "huge": lambda: HUGE[type(value)],
        "boolean": lambda: True,
    }[kind]()
    return cfg


def cases():
    """Every (config name, path, kind) of the fixed case list."""
    out = []
    for name in sorted(filter(config_command, os.listdir(CONFIGS))):
        cfg, refs = _base(name)
        pairs = [(path, kind) for path, value in _paths(cfg)
                 for kind in _kinds(path, value, refs)]
        top = [pair for pair in pairs if len(pair[0]) == 1]
        deep = [pair for pair in pairs if len(pair[0]) > 1]
        rng = random.Random(f"{SEED}:{name}")
        picked = top + rng.sample(deep, min(DEEP_CASES_PER_CONFIG, len(deep)))
        out += [(name, path, kind) for path, kind in picked]
    return out


CASES = cases()


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def run_case(tmp_path, name, path, kind):
    """Run one mutated config through cli.main; return (exit code, stderr, out dir)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mutate(_base(name)[0], path, kind)))
    out = tmp_path / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            cli.main([config_command(name), "--config", str(config), "--out", str(out)],
                     standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue(), out


def test_case_list_is_fixed_and_large():
    assert len(CASES) >= 200
    assert cases() == CASES
    assert {name for name, _, _ in CASES} == set(filter(config_command, os.listdir(CONFIGS)))


@pytest.mark.parametrize("name,path,kind", CASES,
                         ids=[f"{n}:{'/'.join(map(str, p))}:{k}" for n, p, k in CASES])
def test_mutated_config_exits_cleanly(tmp_path, name, path, kind):
    code, stderr, out = run_case(tmp_path, name, path, kind)
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.rstrip().splitlines()[-1].startswith("error: "), stderr
    else:
        _strict_json(out / "result.json")
