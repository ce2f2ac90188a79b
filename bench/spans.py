"""Outside-in spans around rqgames' public functions.

The tracer wraps, at run time, the functions ``rqgames.cli`` calls by the
names it binds them to, plus two names bound inside the library:
``rqgames.nash.verify_equilibrium``, so that enumeration self time excludes
re-verification, and ``rqgames.induce.probability_table``, so that
induce self time excludes the probability step.  The package itself is
not changed; in-program counters are left to the program.

Each call records a span (name, start, end, parent span, document id) in
flat in-memory arrays; ``save`` writes them out at the end of a run.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

from array import array
from math import comb
from time import perf_counter

import numpy as np

ROOT = "cli.main"

# (module, name it binds, layer metric the span's self time adds to)
TARGETS = (
    ("cli", "build_parser", "cli.argparse_s"),
    ("cli", "parse_spec", "cli.parse_s"),
    ("cli", "parse_sweep_spec", "cli.parse_s"),
    ("cli", "run_induce", "cli.render_s"),
    ("cli", "run_classify", "cli.render_s"),
    ("cli", "run_nash", "cli.render_s"),
    ("cli", "run_verify", "cli.render_s"),
    ("cli", "run_sweep", "cli.render_s"),
    ("cli", "ultimatum_2x2", "games.build_s"),
    ("cli", "ultimatum_general", "games.build_s"),
    ("cli", "PayoffTable", "games.build_s"),
    ("cli", "bell_like", "hilbert.state_s"),
    ("cli", "state_from_amplitudes", "hilbert.state_s"),
    ("cli", "probability_table", "hilbert.probs_s"),
    ("induce", "probability_table", "hilbert.probs_s"),
    ("cli", "induce_game", "induce.induce_s"),
    ("cli", "classify_state", "induce.classify_s"),
    ("cli", "support_enumeration", "nash.enum_s"),
    ("cli", "grid_oracle", "nash.grid_s"),
    ("cli", "verify_equilibrium", "nash.verify_s"),
    ("nash", "verify_equilibrium", "nash.verify_s"),
)
LAYERS = ("cli.main_s",) + tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def support_pairs(m: int, n: int) -> int:
    """Equal-size support pairs of an m x n game: sum over k of C(m,k) C(n,k)."""
    return sum(comb(m, k) * comb(n, k) for k in range(1, min(m, n) + 1))


# What a span notes besides its times: (m, n, out) from arguments and result.
def _note_induce(args, game):
    return game.proposer.shape + (0,)


def _note_enumeration(args, profiles):
    return args[0].proposer.shape + (len(profiles),)


def _note_verify(args, profile):
    return 0, 0, int(profile.certified)


NOTES = {"induce_game": _note_induce, "support_enumeration": _note_enumeration, "verify_equilibrium": _note_verify}


class Tracer:
    def __init__(self, modules: dict):
        self.names = [ROOT] + [f"{mod}.{attr}" for mod, attr, _ in TARGETS]
        self.layer_of = np.array([LAYERS.index(layer) for layer in ("cli.main_s",) + tuple(t[2] for t in TARGETS)])
        self.name, self.parent, self.doc = array("h"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.m, self.n, self.out = array("h"), array("h"), array("i")
        self.stack = [-1]
        self.doc_id = -1
        self._patches = []
        for code, (mod, attr, _) in enumerate(TARGETS, start=1):
            module = modules[mod]
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original, code, NOTES.get(attr))))

    def _wrap(self, fn, code, note):
        name, parent, doc, start, end = self.name, self.parent, self.doc, self.start, self.end
        ms, ns, outs, stack = self.m, self.n, self.out, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(code)
            parent.append(stack[-1])
            doc.append(self.doc_id)
            start.append(0.0)
            end.append(0.0)
            ms.append(0)
            ns.append(0)
            outs.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if note is not None:
                ms[idx], ns[idx], outs[idx] = note(args, result)
            return result

        return traced

    def root(self, main):
        """``main`` wrapped as the root span of each document."""
        return self._wrap(main, 0, None)

    def install(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "doc": np.frombuffer(self.doc, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "m": np.frombuffer(self.m, dtype=np.int16),
            "n": np.frombuffer(self.n, dtype=np.int16),
            "out": np.frombuffer(self.out, dtype=np.int32),
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Layer self times and counters summed over every recorded span."""
        s = self.arrays()
        duration = s["end"] - s["start"]
        nested = s["parent"] >= 0
        children = np.bincount(s["parent"][nested], weights=duration[nested], minlength=duration.size)
        own = duration - children
        layer = self.layer_of[s["name"]]
        result = dict(zip(LAYERS, np.bincount(layer, weights=own, minlength=len(LAYERS)).tolist()))

        def spans_of(attr):
            return np.isin(s["name"], [i for i, n in enumerate(self.names) if n.endswith("." + attr)])

        induce, enum, verify = spans_of("induce_game"), spans_of("support_enumeration"), spans_of("verify_equilibrium")
        result["induce.calls"] = int(induce.sum())
        result["induce.cells"] = int((s["m"][induce].astype(int) * s["n"][induce]).sum())
        result["nash.enum_calls"] = int(enum.sum())
        result["nash.equilibria"] = int(s["out"][enum].sum())
        result["nash.verify_calls"] = int(verify.sum())
        result["nash.certified"] = int(s["out"][verify].sum())
        result["nash.grid_fallbacks"] = int(spans_of("grid_oracle").sum())
        by_size = {}
        for m, n, t in zip(s["m"][enum].tolist(), s["n"][enum].tolist(), own[enum].tolist()):
            entry = by_size.setdefault(f"{m}x{n}", [0.0, 0, 0])
            entry[0] += t
            entry[1] += 1
            entry[2] += support_pairs(m, n)
        result["nash.enum_pairs"] = sum(e[2] for e in by_size.values())
        result["enum_by_size"] = by_size
        result["accounted_s"] = float(own.sum())
        return result
