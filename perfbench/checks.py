"""Checks of the program's outputs, computed apart from the program.

Nothing here imports bvlab.  Each check returns a list of error strings
(empty when the output is right); the theory-row check also counts the rows
that hit the known variance fault, which the benchmark reports as failed
operations instead of errors.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf, sqrt
from scipy import integrate

THEORY_REL_TOL = 1e-10
DECOMPOSE_REL_TOL = 1e-9
MTILDE_REL_TOL = 0.02
UNIFORM_RISK = {4: 0.75}  # risk of the uniform predictor, by class count


def closed_form(lambda0: float, gamma: float) -> tuple[float, float, float]:
    """Limiting (bias_sq, variance, risk) to 50 correct digits, as floats.

    Uses the direct form ``bias = phi3^2/4``, ``risk = phi1/(2 phi2) +
    (1 - gamma)/2`` and ``variance = risk - bias``.  The subtractions cancel
    up to about ``|log10 lambda0| + |log10 gamma|`` digits twice over, so the
    working precision carries that many guard digits on top of 50.
    """
    guard = 2 * math.ceil(abs(math.log10(lambda0)) + abs(math.log10(gamma)))
    with mp.workdps(70 + guard):
        lam, g = mpf(lambda0), mpf(gamma)
        u = g + lam - 1
        phi2 = sqrt(u * u + 4 * lam)
        phi3 = phi2 - u
        bias = phi3 * phi3 / 4
        risk = (lam * (g + 1) + (g - 1) ** 2) / (2 * phi2) + (1 - g) / 2
        return float(bias), float(risk - bias), float(risk)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def theory_rows(rows: list[dict], expected_rows: int) -> tuple[int, list[str]]:
    """(failed rows, errors) for ``bvlab theory`` output.

    A row fails -- the known fault, counted and not an error -- when its
    variance is negative or off by more than 1e-10 relative.  A bias or risk
    off by more than 1e-10 relative on a row whose variance is right is an
    error.
    """
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"theory: {len(rows)} rows, expected {expected_rows}")
    failed = 0
    for row in rows:
        bias, variance, risk = closed_form(row["lambda0"], row["gamma"])
        if row["variance"] < 0.0 or _rel(row["variance"], variance) > THEORY_REL_TOL:
            failed += 1
        elif (_rel(row["bias_sq"], bias) > THEORY_REL_TOL
              or _rel(row["risk"], risk) > THEORY_REL_TOL):
            errors.append(
                f"theory: ({row['lambda0']!r}, {row['gamma']!r}) bias/risk "
                f"{row['bias_sq']!r}/{row['risk']!r}, expected {bias!r}/{risk!r}")
    return failed, errors[:20]


def _identity_errors(mode: str, row: dict, atol: float) -> list[str]:
    errors = []
    gap = abs(row["risk"] - row["bias_sq"] - row["variance"])
    if not gap <= atol * max(1.0, abs(row["risk"])):
        errors.append(f"{mode}: risk - bias_sq - variance = {gap:.3e} at {row}")
    if not row["variance"] >= 0.0:
        errors.append(f"{mode}: negative variance at {row}")
    return errors


def simulate_rows(rows: list[dict], cfg: dict, seed: int) -> list[str]:
    """Every point within max(0.02, 5%) of the closed form (criterion 03)."""
    lambdas = [float(v) for v in cfg["lambda0"].split(",")]
    ps = [int(v) for v in cfg["p"].split(",")]
    expected = [(lam, p) for lam in lambdas for p in ps]
    got = [(row["lambda0"], row["p"]) for row in rows]
    if got != expected:
        return [f"simulate: grid {got}, expected {expected}"]
    errors = []
    for row in rows:
        if (row["d"], row["n"], row["trials"], row["seed"]) != (
                cfg["d"], cfg["n"], cfg["trials"], seed):
            errors.append(f"simulate: wrong d/n/trials/seed in {row}")
        limits = closed_form(row["lambda0"], row["p"] / cfg["d"])
        for key, limit in zip(("bias_sq", "variance", "risk"), limits):
            if not abs(row[key] - limit) <= max(0.02, 0.05 * abs(limit)):
                errors.append(f"simulate: {key} {row[key]!r} vs limit {limit!r} at {row}")
        errors += _identity_errors("simulate", row, 1e-9)
    return errors


def mlp_rows(rows: list[dict], cfg: dict, seed: int) -> list[str]:
    """Identity, variance >= 0 and risk below the uniform predictor's."""
    widths = [int(v) for v in cfg["widths"].split(",")]
    if [row["width"] for row in rows] != widths:
        return [f"mlp-sweep: widths {[row['width'] for row in rows]}, expected {widths}"]
    errors = []
    uniform = UNIFORM_RISK[cfg["classes"]]
    for row in rows:
        if row["seed"] != seed or row["noise_p"] != cfg["noise_p"]:
            errors.append(f"mlp-sweep: wrong seed/noise_p in {row}")
        errors += _identity_errors("mlp-sweep", row, 1e-12)
        if not row["risk"] < uniform:
            errors.append(f"mlp-sweep: risk {row['risk']!r} not below uniform {uniform}")
    return errors


def mlp_shape(rows: list[dict], cfg: dict) -> list[str]:
    """The criterion-09 shape over a whole sweep: the variance falls from an
    interior peak toward the widest net, and the bias at the widest net is
    below that at the narrowest.

    Criterion 09 also asks the peak to exceed the narrowest net's variance;
    that fails on some seeds (the width-2 variance is the largest), so it is
    not checked here.
    """
    widths = [int(v) for v in cfg["widths"].split(",")]
    if [row["width"] for row in rows] != widths:
        return [f"mlp-sweep: sweep widths {[row['width'] for row in rows]}, expected {widths}"]
    errors = []
    variances = [row["variance"] for row in rows]
    if not max(variances[1:-1]) > variances[-1]:
        errors.append(f"mlp-sweep: variance does not fall toward the widest net: {variances}")
    if not rows[-1]["bias_sq"] < rows[0]["bias_sq"]:
        errors.append(
            f"mlp-sweep: bias {rows[-1]['bias_sq']!r} at the widest net is not "
            f"below {rows[0]['bias_sq']!r} at the narrowest")
    return errors


def reference_decomposition(kind: str, outputs: np.ndarray, labels: np.ndarray):
    """(risk, bias_sq, variance) in plain NumPy.

    ``real``: mean squared error; variance is the unbiased variance across
    the parts of each repeat, averaged over repeats; bias is the difference.
    ``simplex``: KL decomposition around the normalized geometric mean of
    all k*N distributions; risk = mean cross-entropy to the label.
    """
    test_count, k, parts, c = outputs.shape
    if kind == "real":
        risk = np.mean(np.sum((outputs - labels[:, None, None, :]) ** 2, axis=3))
        spread = outputs - outputs.mean(axis=2, keepdims=True)
        variance = np.mean(np.sum(spread ** 2, axis=(2, 3)) / (parts - 1))
        return float(risk), float(risk - variance), float(variance)
    logp = np.log(outputs.reshape(test_count, k * parts, c))
    log_mean = logp.mean(axis=1)
    log_norm = log_mean - np.log(np.exp(log_mean).sum(axis=1, keepdims=True))
    truth = labels.argmax(axis=1)
    rows = np.arange(test_count)
    risk = -logp[rows, :, truth].mean()
    bias = -log_norm[rows, truth].mean()
    variance = np.mean(np.sum(np.exp(log_norm)[:, None, :] * (log_norm[:, None, :] - logp),
                              axis=2))
    return float(risk), float(bias), float(variance)


def decompose_rows(rows: list[dict], reference, shape) -> list[str]:
    """The decomposition matches the reference to 1e-9 relative."""
    if len(rows) != 1:
        return [f"decompose: {len(rows)} rows, expected 1"]
    row = rows[0]
    errors = []
    if (row["n"], row["trials"]) != (shape[0], shape[1] * shape[2]):
        errors.append(f"decompose: n/trials {row['n']}/{row['trials']} for shape {shape}")
    for key, value in zip(("risk", "bias_sq", "variance"), reference):
        if not _rel(row[key], value) <= DECOMPOSE_REL_TOL:
            errors.append(f"decompose: {key} {row[key]!r}, reference {value!r}")
    return errors


def spectral_risk(lambda0: float, d: int, p: int) -> float:
    """E[(1 + mu/lambda0)^-2] over the Marchenko-Pastur law of W^T W's spectrum.

    W is p x d with N(0, 1/d) entries, so ``W^T W = S / eta`` with ``eta =
    d/p`` and S a sample covariance whose spectrum has the Marchenko-Pastur
    density ``sqrt((b - x)(x - a)) / (2 pi eta x)`` on ``[a, b] = [(1 -
    sqrt(eta))^2, (1 + sqrt(eta))^2]``, plus an atom of mass ``1 - 1/eta`` at
    zero when ``eta > 1``.
    """
    eta = d / p
    lo, hi = (1.0 - math.sqrt(eta)) ** 2, (1.0 + math.sqrt(eta)) ** 2

    def h(x: float) -> float:
        return 1.0 / (1.0 + x / (eta * lambda0)) ** 2 / (2.0 * math.pi * eta)

    if lo == 0.0:  # eta = 1: the density diverges like x^(-1/2) at zero
        bulk, _ = integrate.quad(h, lo, hi, weight="alg", wvar=(-0.5, 0.5))
    else:
        bulk, _ = integrate.quad(lambda x: h(x) / x, lo, hi, weight="alg", wvar=(0.5, 0.5))
    return bulk + max(0.0, 1.0 - 1.0 / eta)


def mtilde_value(value: float, args: dict) -> list[str]:
    """The Monte Carlo risk is within 2% of the spectral integral."""
    reference = spectral_risk(args["lambda0"], args["d"], args["p"])
    if not _rel(value, reference) <= MTILDE_REL_TOL:
        return [f"mc_risk_mtilde: {value!r} vs spectral integral {reference!r} at {args}"]
    return []


def peak_value(value: float, lambda0: float, step: float = 1e-3) -> list[str]:
    """The closed-form variance at the returned ratio beats its neighbours."""
    if not 0.0 < value < 2.0:
        return [f"variance_peak({lambda0}) = {value!r} outside (0, 2)"]
    here = closed_form(lambda0, value)[1]
    left = closed_form(lambda0, value - step)[1]
    right = closed_form(lambda0, value + step)[1]
    if not (here >= left and here >= right):
        return [f"variance_peak({lambda0}) = {value!r} is not a local maximum"]
    return []
