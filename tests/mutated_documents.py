"""Seeded mutated documents of all five commands, and what the command-line
surface does with each: exit code, stderr and a hash of stdout.

    PYTHONPATH=src python tests/mutated_documents.py

writes those outcomes to tests/data/mutated_documents.jsonl, one line per
document with hashes of its spec text and stdout, which
``test_mutated_documents_match_their_golden`` compares against.  Each document is a valid one with one to three leaves changed,
dropped or added, and with its keys reordered half of the time, since
error order can depend on key order.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import warnings

from rqgames.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "mutated_documents.jsonl")
SEED = 20
COUNT = 1500

BELL = {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}}
BASES = {
    "induce": [
        {
            "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
            "state": BELL,
            "moves": {"proposer": [[1, 0], [0, 1]], "responder": [[0, 1], [1, 0]]},
        },
        {"payoffs": {"ultimatum": {"total": 10, "offers": [2, 4, 6]}}, "state": {"bell": {"theta": 0.5, "basis_a": [0, 0], "basis_b": [2, 1]}}},
    ],
    "classify": [
        {
            "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
            "state": {"amplitudes": {"matrix": [[[0.6, 0], 0], [0, [0, 0.8]]], "normalize": True}},
        },
        {"payoffs": {"ultimatum": {"a": 3, "b": 2, "c": 1}}, "state": {"bell": {"theta": "-pi/3", "basis_a": [0, 1], "basis_b": [1, 0]}}},
    ],
    "nash": [
        {
            "payoffs": {"matrices": {"proposer": [[3, 0, 1], [1, 2, 0], [0, 1, 3]], "responder": [[1, 2, 0], [0, 1, 3], [3, 0, 1]]}},
            "state": {"amplitudes": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
            "moves": {"proposer": [[0, 1, 2], [1, 2, 0]], "responder": [[2, 0, 1], [0, 1, 2]]},
            "solver": {"eps": 1e-9},
        },
        {
            "payoffs": {"ultimatum": {"total": 10, "offers": [3, 5]}},
            "state": {"amplitudes": {"matrix": [[1, 0], [0, 1]], "normalize": True}},
            "solver": {"eps": 1e-6, "resolution": 4},
        },
    ],
    "verify": [
        {"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}}, "state": BELL},
        {"payoffs": {"matrices": {"proposer": [[2, 0], [0, 1]], "responder": [[1, 0], [0, 2]]}}, "state": BELL},
    ],
    "sweep": [
        {
            "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
            "sweep": {"theta": {"start": "-pi/3", "stop": "pi", "count": 9}, "basis_a": [1, 1], "basis_b": [0, 0]},
        },
        {
            "payoffs": {"matrices": {"proposer": [[2, 0], [0, 1]], "responder": [[1, 0], [0, 2]]}},
            "sweep": {
                "theta": {"start": 0, "stop": "2*pi", "count": 17},
                "basis_a": [0, 1],
                "basis_b": [1, 0],
                "outputs": ["label", "equilibria"],
            },
            "solver": {"eps": 1e-9},
        },
    ],
}
FLAGS = {"verify": ["--profile", "0.5,0.5;0.5,0.5"]}

DROP = object()
SCALARS = [
    0, 1, 2, -1, 3, 10**308, 10**400, -(10**400),
    0.0, -0.0, 0.5, 1.5, -2.5, 5e-324, 3e-170, 1e300, 1.7976931348623157e308, -1e308, 1e308, float("nan"), float("inf"),
    "pi/2", "-pi/0", "", "x", "3", " 1e3 ", "2*pi", "1e400",
    True, False, None,
]
LISTS = [[], [0, 1], [1, 0], [2, 0], [1.5, 0], [True, 0], ["probs"], ["label", "probs"], ["probs", "probs"], [["probs"]]]
# values of the kinds the documents hold, so that more documents get past their first fields
PLAIN = [0, 1, 2, 3, 0.25, 0.5, 4.5, "pi/3", "-pi/8", [0, 1], [1, 0], [1, 1], [0, 0], [[1, 0], [0, 1]]]
KEYS = [
    "x", "a", "b", "c", "total", "offers", "ultimatum", "matrices", "proposer", "responder", "bell", "amplitudes",
    "theta", "basis_a", "basis_b", "matrix", "normalize", "state", "moves", "solver", "eps", "resolution",
    "sweep", "start", "stop", "count", "outputs",
]


def _leaf(rng):
    kind = rng.random()
    if kind < 0.45:
        return rng.choice(SCALARS)
    if kind < 0.55:
        return rng.randint(-1000, 1000) if rng.random() < 0.5 else rng.uniform(-10, 10)
    if kind < 0.75:
        return copy.deepcopy(rng.choice(PLAIN))
    if kind < 0.9:
        return copy.deepcopy(rng.choice(LISTS))
    return {rng.choice(KEYS): rng.choice(SCALARS)}


def _nodes(doc, path=()):
    """The paths of every value inside a document, and whether each is a container."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    nodes = [(path, isinstance(doc, (dict, list)))]
    for key, value in items:
        nodes += _nodes(value, (*path, key))
    return nodes


def _reordered(doc, rng):
    if isinstance(doc, dict):
        keys = list(doc)
        rng.shuffle(keys)
        return {key: _reordered(doc[key], rng) for key in keys}
    if isinstance(doc, list):
        return [_reordered(value, rng) for value in doc]
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, rng):
    """``doc`` with one leaf changed, dropped or added; a change may replace the whole document."""
    nodes = _nodes(doc)
    kind = rng.choice(("change", "change", "drop", "add"))
    if kind == "add":
        containers = [path for path, container in nodes if container]
        if not containers:
            return _leaf(rng)
        block = _at(doc, rng.choice(containers))
        if isinstance(block, dict):
            block[rng.choice(KEYS)] = _leaf(rng)
        else:
            block.insert(rng.randint(0, len(block)), _leaf(rng))
        return doc
    path = rng.choice(nodes if kind == "change" else nodes[1:] or nodes)[0]
    if not path:
        return _leaf(rng)
    block = _at(doc, path[:-1])
    if kind == "drop":
        del block[path[-1]]
    else:
        block[path[-1]] = _leaf(rng)
    return doc


def documents(seed=SEED, count=COUNT):
    """``count`` (argv, spec text) pairs from ``seed``."""
    rng = random.Random(seed)
    commands = sorted(BASES)
    for _ in range(count):
        command = rng.choice(commands)
        doc = json.loads(json.dumps(rng.choice(BASES[command])))
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        if rng.random() < 0.5:
            doc = _reordered(doc, rng)
        argv = [command, "--spec", "-", *FLAGS.get(command, []), "--format", rng.choice(("table", "csv"))]
        yield argv, json.dumps(doc)


def outcome(argv, text) -> dict:
    """What ``main`` does with ``argv`` on the spec ``text`` read from stdin.

    A warning that numpy's floating-point checks raise is an error here, as in
    the test suite, so that it is recorded without a source location.
    """
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    except Exception as exc:  # recorded, so the golden shows what an uncaught error was
        code, raised = None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin
    return {
        "spec": _digest(text),
        "code": code,
        **({"raised": raised} if raised else {}),
        "stderr": err.getvalue(),
        "stdout": _digest(out.getvalue()),
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        for argv, text in documents():
            handle.write(json.dumps(outcome(argv, text)) + "\n")
