"""Independent checker for rqgames CLI outputs.

Nothing here imports rqgames.  Every answer is recomputed from the
numbers the generator put into the document, with the induced-game
definition written out directly:

    game[i, j] = sum over (k, l) of p[k, l] * payoff[sigma_i(k), tau_j(l)]

Printed numbers carry 9 significant digits, so a printed strategy can be
off by about 5e-10 per weight; regrets and payoffs recomputed from it may
then be off by the payoff scale times the side length times 1e-9.  The
tolerances below allow ten times that on top of the solver's eps.

Labels and certificates that sit within rounding of their decision
boundary are accepted either way, so that a deliberate change of the
program's tolerance rule does not read as a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np

MOVES_2 = ((1, 0), (0, 1))  # swap, identity: the 2x2 default move set
BOUNDARY = 1e-9


def induced(payoff, probs, moves_p, moves_r) -> np.ndarray:
    sigma = np.asarray(moves_p)[:, None, :, None]
    tau = np.asarray(moves_r)[None, :, None, :]
    return np.einsum("...kl,ijkl->...ij", probs, np.asarray(payoff)[sigma, tau])


def _game(exp) -> tuple[np.ndarray, np.ndarray]:
    args = (exp["probs"], exp["moves_p"], exp["moves_r"])
    return induced(exp["P"], *args), induced(exp["R"], *args)


def _tol(exp, side: int) -> float:
    scale = max(1.0, float(np.abs(exp["P"]).max()), float(np.abs(exp["R"]).max()))
    return exp["eps"] + 1e-8 * scale * side


def _printed_close(printed: float, true: float, scale: float) -> bool:
    return abs(printed - true) <= 1e-8 * abs(true) + 1e-12 * scale


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def _after_colon(line: str) -> str:
    return line.split(":", 1)[1]


def _regrets(A, B, x, y):
    vp, vr = float(x @ A @ y), float(x @ B @ y)
    return vp, vr, float((A @ y).max()) - vp, float((x @ B).max()) - vr


def _profile_problem(A, B, x, y, pay, reg, tol):
    """What is wrong with a printed equilibrium, or None."""
    m, n = A.shape
    if x.size != m or y.size != n:
        return f"strategy lengths {x.size},{y.size} for a {m}x{n} game"
    if min(x.min(), y.min()) < -BOUNDARY or abs(x.sum() - 1) > 1e-8 * m or abs(y.sum() - 1) > 1e-8 * n:
        return f"not a strategy pair: {x.tolist()} {y.tolist()}"
    vp, vr, rp, rr = _regrets(A, B, x, y)
    if max(rp, rr) > tol:
        return f"regret {max(rp, rr):.3g} above {tol:.3g}"
    if abs(pay[0] - vp) > tol or abs(pay[1] - vr) > tol:
        return f"payoffs {pay[0]:.9g} {pay[1]:.9g}, expected {vp:.9g} {vr:.9g}"
    if abs(reg[0] - max(rp, 0.0)) > tol or abs(reg[1] - max(rr, 0.0)) > tol:
        return f"regrets {reg[0]:.3g} {reg[1]:.3g}, expected {rp:.3g} {rr:.3g}"
    return None


def _anchor_problem(anchor, payoffs) -> str | None:
    for pp, pr in payoffs:
        if abs(pp - anchor[0]) > 1e-9 or abs(pr - anchor[1]) > 1e-9:
            return f"paper anchor {anchor} broken: equilibrium pays {pp:.9g}/{pr:.9g}"
    return None


# --- per command -------------------------------------------------------------


def _check_induce(exp, lines):
    A, B = _game(exp)
    m, n = A.shape
    if exp["format"] == "csv":
        if lines[0] != "matrix,row,col,value" or len(lines) != 1 + 2 * m * n:
            return "induce csv shape"
        printed = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]]).reshape(2, m, n)
    else:
        if lines[0] != f"induced game {m}x{n}" or lines[1] != "proposer:" or lines[2 + m] != "responder:":
            return "induce table shape"
        rows = lines[2 : 2 + m] + lines[3 + m : 3 + 2 * m]
        printed = np.array([_floats(r) for r in rows]).reshape(2, m, n)
    scale = max(1.0, float(np.abs(exp["P"]).max()), float(np.abs(exp["R"]).max()))
    for got, want in zip(printed.ravel(), np.stack([A, B]).ravel()):
        if not _printed_close(got, want, scale):
            return f"induced entry {got:.9g}, expected {want:.9g}"
    return None


def _label(d1, d2) -> str | None:
    """The sign-rule label, or None when a difference sits on the boundary."""
    if abs(d1) <= BOUNDARY or abs(d2) <= BOUNDARY:
        return None
    return "opposed" if d1 * d2 < 0 else "aligned"


def _check_classify(exp, lines):
    p = exp["probs"]
    d1, d2 = p[1, 1] - p[0, 1], p[1, 0] - p[0, 0]
    if exp["format"] == "csv":
        if lines[0] != "label,diff1,diff2" or len(lines) != 2:
            return "classify csv shape"
        label, g1, g2 = lines[1].split(",")
    else:
        label, g1, g2 = (_after_colon(line).strip() for line in lines)
    if not (_printed_close(float(g1), d1, 1.0) and _printed_close(float(g2), d2, 1.0)):
        return f"diffs {g1} {g2}, expected {d1:.9g} {d2:.9g}"
    expected = _label(d1, d2)
    if label not in ("aligned", "opposed") or (expected and label != expected):
        return f"label {label}, expected {expected}"
    return None


def _parse_nash(exp, lines):
    """Printed equilibria as (certified, x, y, payoffs, regrets) tuples."""
    found = []
    if exp["format"] == "csv":
        for row in lines[1:]:
            f = row.split(",")
            pay, reg = (float(f[4]), float(f[5])), (float(f[6]), float(f[7]))
            found.append((f[2] == "true", _floats(f[8]), _floats(f[9]), pay, reg))
        return found
    count = int(_after_colon(lines[0]))
    if len(lines) != 1 + 5 * count:
        raise ValueError(f"{len(lines)} lines for {count} equilibria")
    for i in range(1, len(lines), 5):
        head, xs, ys, pay, reg = lines[i : i + 5]
        found.append(
            (
                "certified=true" in head.split(),
                _floats(_after_colon(xs)),
                _floats(_after_colon(ys)),
                tuple(_floats(_after_colon(pay))),
                tuple(_floats(_after_colon(reg))),
            )
        )
    return found


def _check_nash(exp, lines):
    A, B = _game(exp)
    found = _parse_nash(exp, lines)
    if not found:
        return "no equilibrium"
    if exp.get("nondegenerate") and len(found) % 2 == 0:
        return f"{len(found)} equilibria in a nondegenerate game (odd count expected)"
    tol = _tol(exp, max(A.shape))
    for certified, x, y, pay, reg in found:
        problem = _profile_problem(A, B, x, y, pay, reg, tol)
        if problem:
            return problem
        if not certified:
            return "equilibrium printed as not certified"
    if "anchor" in exp:
        return _anchor_problem(exp["anchor"], [f[3] for f in found])
    return None


def _check_verify(exp, lines):
    A, B = _game(exp)
    x, y = (np.array(v) for v in exp["profile"])
    if exp["format"] == "csv":
        if len(lines) != 2:
            return "verify csv shape"
        f = lines[1].split(",")
        certified, pay, reg = f[0], (float(f[2]), float(f[3])), (float(f[4]), float(f[5]))
    else:
        certified = _after_colon(lines[0]).strip()
        pay, reg = tuple(_floats(_after_colon(lines[2]))), tuple(_floats(_after_colon(lines[3])))
    vp, vr, rp, rr = _regrets(A, B, x, y)
    tol = _tol(exp, max(A.shape)) - exp["eps"]
    if abs(pay[0] - vp) > tol or abs(pay[1] - vr) > tol:
        return f"payoffs {pay}, expected {vp:.9g} {vr:.9g}"
    if abs(reg[0] - max(rp, 0.0)) > tol or abs(reg[1] - max(rr, 0.0)) > tol:
        return f"regrets {reg}, expected {rp:.9g} {rr:.9g}"
    worst = max(rp, rr)
    if abs(worst - exp["eps"]) > tol and certified != ("true" if worst <= exp["eps"] else "false"):
        return f"certified={certified} with max regret {worst:.3g} at eps {exp['eps']}"
    return None


def _sweep_columns(outputs) -> list[str]:
    columns = ["theta"]
    if "probs" in outputs:
        columns += ["p00", "p01", "p10", "p11"]
    if "label" in outputs:
        columns.append("label")
    return columns + ["equilibria"]


def _sweep_rows(exp, lines, columns):
    if exp["format"] == "csv":
        if lines[0] != ",".join(columns):
            raise ValueError(f"header {lines[0]!r}")
        return [line.split(",") for line in lines[1:]]
    rows = []
    for line in lines:
        pairs = [cell.split("=", 1) for cell in line.split("; ")]
        if [name for name, _ in pairs] != columns:
            raise ValueError(f"row {line!r}")
        rows.append([value for _, value in pairs])
    return rows


def _check_sweep(exp, lines):
    columns = _sweep_columns(exp["outputs"])
    rows = _sweep_rows(exp, lines, columns)
    count = exp["count"]
    if len(rows) != count:
        return f"{len(rows)} sweep rows, expected {count}"
    step = (exp["stop"] - exp["start"]) / (count - 1)
    theta = exp["start"] + np.arange(count) * step
    theta[-1] = exp["stop"]
    printed = np.array([float(r[0]) for r in rows])
    if np.any(np.abs(printed - theta) > 1e-8 * np.maximum(1.0, np.abs(theta))):
        return "theta grid"
    probs = np.zeros((count, 2, 2))
    probs[(slice(None),) + exp["basis_a"]] = np.cos(theta) ** 2
    probs[(slice(None),) + exp["basis_b"]] = np.sin(theta) ** 2
    if "probs" in exp["outputs"]:
        got = np.array([[float(v) for v in r[1:5]] for r in rows])
        if np.any(np.abs(got - probs.reshape(count, 4)) > 1e-8):
            return "sweep probabilities"
        if np.any(np.abs(got.sum(axis=1) - 1.0) > 1e-8):
            return "sweep probabilities do not sum to 1"
    if "label" in exp["outputs"]:
        at = columns.index("label")
        for i, r in enumerate(rows):
            expected = _label(probs[i, 1, 1] - probs[i, 0, 1], probs[i, 1, 0] - probs[i, 0, 0])
            if r[at] not in ("aligned", "opposed") or (expected and r[at] != expected):
                return f"row {i}: label {r[at]}, expected {expected}"
    return _sweep_equilibria(exp, rows, probs, theta)


def _sweep_equilibria(exp, rows, probs, theta):
    owner, values = [], []
    for i, r in enumerate(rows):
        groups = [g for g in r[-1].split(";") if g]
        if not groups:
            return f"row {i}: no equilibrium"
        for group in groups:
            fields = dict(item.split("=", 1) for item in group.split())
            owner.append(i)
            values.append([float(fields[k]) for k in ("mu", "nu", "pp", "pr")])
    owner = np.array(owner)
    mu, nu, pp, pr = np.array(values).T
    A = induced(exp["P"], probs, MOVES_2, MOVES_2)[owner]
    B = induced(exp["R"], probs, MOVES_2, MOVES_2)[owner]
    x = np.stack([mu, 1.0 - mu], axis=1)
    y = np.stack([nu, 1.0 - nu], axis=1)
    vp = np.einsum("ei,eij,ej->e", x, A, y)
    vr = np.einsum("ei,eij,ej->e", x, B, y)
    rp = np.einsum("eij,ej->ei", A, y).max(axis=1) - vp
    rr = np.einsum("ei,eij->ej", x, B).max(axis=1) - vr
    tol = _tol(exp, 2)
    bad = (
        (np.minimum(mu, nu) < -BOUNDARY)
        | (np.maximum(mu, nu) > 1.0 + BOUNDARY)
        | (np.maximum(rp, rr) > tol)
        | (np.abs(pp - vp) > tol)
        | (np.abs(pr - vr) > tol)
    )
    if bad.any():
        e = int(np.argmax(bad))
        return f"row {owner[e]}: equilibrium mu={mu[e]} nu={nu[e]} fails (regret {max(rp[e], rr[e]):.3g})"
    if "anchor" in exp:
        at = np.flatnonzero(np.abs(theta - math.pi / 4) < 1e-12)
        if at.size != 1:
            return "anchor row theta = pi/4 missing"
        return _anchor_problem(exp["anchor"], list(zip(pp[owner == at[0]], pr[owner == at[0]])))
    return None


CHECKS = {
    "induce": _check_induce,
    "classify": _check_classify,
    "nash": _check_nash,
    "verify": _check_verify,
    "sweep": _check_sweep,
}


def check(exp: dict, code, out: str, err: str) -> str | None:
    """Why a CLI call's exit code and output are wrong for its document, or None."""
    if "reject" in exp:
        if code != 2:
            return f"expected exit 2 ({exp['reject']}), got {code}"
        if out or not err.startswith("error:"):
            return "a rejection must print nothing on stdout and an error on stderr"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        return CHECKS[exp["command"]](exp, out.splitlines())
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable {exp['command']} output: {exc!r}"
