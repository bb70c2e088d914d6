"""Fuzz the command line in process: any argv over any subcommand, and mutated
fixture documents, must end in a documented exit code with at most one JSON
error line on stderr, no traceback, and within a wall-clock cap.

Draws stay cheap: small fixtures only, depth <= 8, count <= 2000, resolution
<= 64 and small node budgets, and every subcommand gets bounded values of
those flags before the drawn ones, so no default of 200k points or 10^7
nodes is ever reached.  A run still going at the cap is stopped by an alarm
and fails the cap check, so a loop that never ends fails instead of hanging.
"""
import contextlib
import copy
import io
import json
import os
import signal
import tempfile
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, strategies as st  # noqa: E402

from morandim import cli  # noqa: E402
from morandim.system import fixture_document  # noqa: E402

CAP_S = 10.0
CHEAP = ("middle_thirds", "similarity_pair", "diag_triple", "random_diag_pair",
         "scalar_blocks", "random_affine", "example_5_1", "example_5_2")
BOUNDED = {
    "validate": [],
    "dims": ["--depth", "8", "--node-budget", "4096"],
    "boxdim": ["--depth", "6", "--count", "2000"],
    "render": ["--depth", "6", "--count", "2000", "--resolution", "32", "--out", "{tmp}/r.pgm"],
    "cutset": ["--s", "0.7", "--epsilon", "0.05", "--node-budget", "4096"],
}
BAD = ("nan", "inf", "-inf", "0", "-1", "-3", "abc", "", "1.5", "1e-300", "0.5,0.5",
       "-1,0.5", "--")
GOOD = {
    "--which": ("sstar", "sa", "falconer", "moran", "sstar,sa", "moran,falconer", "sa,sa"),
    "--tol": ("0.02", "0.3", "1e-300", "1e300"),
    "--depth": ("1", "2", "3", "5", "8"),
    "--count": ("1", "10", "2000"),
    "--seed": ("0", "7", "123456789012345678901234567890"),
    "--scales": ("0.5,0.25", "0.1,0.01,0.001", "2,3", "1e-3,0.5"),
    "--resolution": ("1", "16", "64"),
    "--threads": ("1", "2", "64"),
    "--node-budget": ("1", "2", "64", "4096"),
    "--s": ("0.3", "1", "2.5"),
    "--epsilon": ("0.5", "0.05", "0.999", "1e-300"),
    "--fixture": CHEAP + ("no_such_fixture",),
    "--out": ("{tmp}/out", "{tmp}/deep/er/file.out", "{tmp}", "{tmp}/config.json"),
    "--bogus": ("1",),
    "--node_budget": ("64",),
}
OWN = {
    "validate": ("--fixture",),
    "dims": ("--fixture", "--which", "--tol", "--depth", "--seed", "--threads",
             "--node-budget", "--out"),
    "boxdim": ("--fixture", "--depth", "--count", "--seed", "--scales", "--threads", "--out"),
    "render": ("--fixture", "--depth", "--count", "--seed", "--resolution", "--threads",
               "--out"),
    "cutset": ("--fixture", "--s", "--epsilon", "--node-budget", "--seed", "--out"),
}
SWITCHES = ("--pretty", "-x", "stray")
LEAVES = (None, True, False, 0, 1, 2, -1, -3, 10 ** 400, 0.5, 1.5, -0.5, 1e308,
          float("nan"), float("inf"), "", "x", [], {}, [1], [[0.5]], [0.0, 0.0])
FACTORS = (0.0, -1.0, 0.5, 0.99, 1.01, 2.0)
DELETE = object()


def _paths(node, path=()):
    """Every key path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(path + (key,))
        out.extend(_paths(child, path + (key,)))
    return out


@st.composite
def mutated_document(draw):
    doc = fixture_document(draw(st.sampled_from(CHEAP)))
    scaled = draw(st.booleans())
    if scaled:  # one factor on every entry of one level's maps: a zero or expanding level
        level = draw(st.sampled_from(doc["schedule"]["levels"]))
        factor = draw(st.sampled_from(FACTORS))
        level["maps"] = [[[v * factor for v in row] for row in m] for m in level["maps"]]
    for _ in range(draw(st.integers(0 if scaled else 1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        node = doc
        for k in parent:
            node = node[k]
        value = draw(st.sampled_from(LEAVES + (DELETE,)))
        old = node[key]
        if (isinstance(old, (int, float)) and not isinstance(old, bool) and abs(old) < 1e300
                and draw(st.booleans())):  # 10**400 times a float overflows
            value = type(old)(old * draw(st.sampled_from(FACTORS)))  # a near-valid document
        if value is DELETE:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)  # later mutations must not reach LEAVES
    return doc


@st.composite
def flag_tokens(draw, command):
    """A flag of ``command`` (one draw in eight: any flag) with a value; one draw
    in four is a bad value, a bare flag or a stray word instead."""
    flag = draw(st.sampled_from(OWN[command] if draw(st.integers(0, 7)) else sorted(GOOD)))
    if draw(st.integers(0, 3)) or flag == "--out":  # never write outside the temp dir
        return [flag, draw(st.sampled_from(GOOD[flag]))]
    return draw(st.sampled_from([[flag, bad] for bad in BAD] + [[flag]] + [[w] for w in SWITCHES]))


@st.composite
def config_source(draw):
    kind = draw(st.sampled_from(["fixture"] * 3 + ["document"] * 2
                                + ["missing", "garbage", "none"]))
    if kind == "fixture":
        return kind, draw(st.sampled_from(CHEAP))
    return kind, draw(mutated_document()) if kind == "document" else None


def _config_args(kind, value, tmp):
    if kind == "fixture":
        return ["--fixture", value]
    if kind == "none":
        return []
    path = os.path.join(tmp, "config.json")
    if kind != "missing":
        with open(path, "w") as f:
            f.write(json.dumps(value) if kind == "document" else "{not json")
    return [path]


class _OverCap(BaseException):
    """Raised by the alarm in a run that outlives CAP_S; not an Exception, so
    ``cli.main`` cannot turn it into an exit code."""


def _raise_over_cap(signum, frame):
    raise _OverCap


def _check_run(argv):
    """Run ``cli.main(argv)`` under a CAP_S alarm and check how it ended."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_over_cap)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    started = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _OverCap:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.monotonic() - started
    out, err = out.getvalue(), err.getvalue()
    assert elapsed < CAP_S, (argv, elapsed)
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in out + err
    lines = err.splitlines()
    assert len(lines) <= 1, (argv, err)
    if lines:
        assert code != 0
        assert set(json.loads(lines[0])) == {"error", "message"}
    elif code != 0:
        assert out, argv  # validate findings, an indeterminate trend, a truncated cut-set


@given(data=st.data(), command=st.sampled_from(sorted(BOUNDED)), source=config_source())
def test_cli_never_crashes(data, command, source):
    flags = data.draw(st.lists(flag_tokens(command), max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + _config_args(*source, tmp) + BOUNDED[command]
        argv = [t.format(tmp=tmp) for t in argv + [t for tokens in flags for t in tokens]]
        _check_run(argv)


@given(command=st.sampled_from(sorted(BOUNDED)),
       field=st.sampled_from(["block_base", "block_ratio"]), value=st.sampled_from(LEAVES))
@example(command="validate", field="block_base", value=-3)  # the block bound ran off to -inf
@example(command="dims", field="block_base", value=10 ** 400)  # no float holds these
@example(command="boxdim", field="block_ratio", value=10 ** 400)
def test_geometric_block_fields_never_crash(command, field, value):
    doc = fixture_document("scalar_blocks")
    doc["schedule"][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + _config_args("document", doc, tmp) + BOUNDED[command]
        _check_run([t.format(tmp=tmp) for t in argv])
