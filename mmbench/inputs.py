"""Seeded inputs for every workload, built with numpy alone.

The worker turns these into program objects and the checker rebuilds them
from the same seed, so neither side trusts the other's copy.  Each workload
owns a pool of input bundles; operation k of a run uses bundle k % POOL, so
every operation has the same make-up and a run of any length attempts whole
bundles.
"""

from __future__ import annotations

import json
import math

import numpy as np

POOL = 8
UNIT = 1024  # finite-space masses are multiples of 1/UNIT

# geodesic: certified cosh controls at two grid sizes plus one flat circle
GEODESIC_SIZES = (256, 512)
CIRCLE_M = 256

# concentration: scaled cosh controls discretised to finite spaces, and the
# collapsing circle family at the sizes of criterion 6
CONCENTRATION_SIZES = (256, 512)
COLLAPSE = {"K": -1.0, "N": -1.0, "n_list": (1, 2, 4, 8, 16, 32, 64),
            "m": 2048, "eps": 0.2}

# finite-lp: sizes of the spaces in one bundle, points in the unit cube;
# the entropy suite runs on spaces with n <= SUITE_MAX_N.  No space lies on
# a line: there w2_exact fails its dual certificate on a few inputs in a
# thousand at every size (a FOUND line in CHANGES.md).
FINITE_SIZES = (8, 16, 32, 64, 120)
SUITE_MAX_N = 10
SUITE_TRIALS = 10

# cli: the small commands of one bundle
CLI_COLLAPSE = {"K": -1.0, "N": -1.0, "n_list": (1, 2, 4), "m": 512,
                "eps": 0.2}
CLI_LEMMA = {"n": 6, "trials": 40}


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *path])


def dyadic_weights(rng: np.random.Generator, n: int, alpha: float, *,
                   floor: int = 0) -> np.ndarray:
    """Dirichlet(alpha) draw rounded to counts of 1/UNIT that sum to UNIT.

    ``floor`` counts go to every point first, so ``floor >= 1`` gives full
    support.  Largest-remainder rounding keeps the sum exact.
    """
    p = rng.dirichlet(np.full(n, alpha))
    free = UNIT - floor * n
    raw = p * free
    counts = np.floor(raw).astype(np.int64)
    short = free - int(counts.sum())
    counts[np.argsort(-(raw - counts), kind="stable")[:short]] += 1
    return (counts + floor) / UNIT


def cosh_spec(rng: np.random.Generator, m: int, k_range) -> dict:
    """Cosh-control parameters with lam at or above the certification
    threshold sqrt(K / (1 - N))."""
    K = float(rng.uniform(*k_range))
    N = float(rng.uniform(-3.0, -0.5))
    lam = math.sqrt(K / (1.0 - N)) * float(rng.uniform(1.0, 1.5))
    L = float(rng.uniform(2.5, 3.5)) / lam
    return {"K": K, "N": N, "lam": lam, "L": L, "m": int(m)}


def cosh_log_density(spec: dict) -> np.ndarray:
    """Midpoint-normalised log density of the cosh control on [0, 2L]."""
    m, L = spec["m"], spec["L"]
    h = 2.0 * L / m
    x = (np.arange(m) + 0.5) * h - L
    log_rho = (spec["N"] - 1.0) * np.log(np.cosh(spec["lam"] * x))
    return log_rho - math.log(float(np.sum(np.exp(log_rho)) * h))


def bump_density(rng: np.random.Generator, m: int, length: float) -> np.ndarray:
    """Strictly positive smooth density (per length) on m uniform cells."""
    h = length / m
    x = (np.arange(m) + 0.5) * h
    rho = np.full(m, 0.05 / length)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(0.1 * length, 0.9 * length)
        w = rng.uniform(0.05, 0.25) * length
        rho = rho + np.exp(-((x - c) / w) ** 2)
    return rho / (rho.sum() * h)


def periodic_density(rng: np.random.Generator, m: int, length: float) -> np.ndarray:
    """Smooth positive periodic density on a circle of the given length."""
    h = length / m
    x = (np.arange(m) + 0.5) * h
    log_rho = np.zeros(m)
    for j in (1, 2, 3):
        log_rho += rng.uniform(-0.8, 0.8) * np.cos(
            2.0 * math.pi * j * x / length + rng.uniform(0.0, 2.0 * math.pi))
    rho = np.exp(log_rho)
    return rho / (rho.sum() * h)


# ---------------------------------------------------------------------------
# workloads


def geodesic(seed: int) -> dict:
    spaces = []
    for s, m in enumerate(GEODESIC_SIZES):
        rng = _rng(seed, 1, s)
        spec = cosh_spec(rng, m, (0.5, 4.0))
        pairs = []
        for _ in range(POOL):
            rho0 = bump_density(rng, m, 2.0 * spec["L"])
            rho1 = bump_density(rng, m, 2.0 * spec["L"])
            pairs.append({"rho0": rho0, "rho1": rho1,
                          "t": float(rng.uniform(0.1, 0.9))})
        spaces.append({"spec": spec, "pairs": pairs})
    rng = _rng(seed, 2)
    circles = []
    for _ in range(POOL):
        length = float(rng.uniform(2.0, 6.0))
        rho0 = periodic_density(rng, CIRCLE_M, length)
        k = int(rng.integers(1, CIRCLE_M // 4 + 1))
        circles.append({"length": length, "m": CIRCLE_M, "k": k,
                        "rho0": rho0, "rho1": np.roll(rho0, k),
                        "K": float(rng.uniform(-2.0, 0.0)),
                        "N": float(rng.uniform(-3.0, -0.5))})
    return {"spaces": spaces, "circles": circles}


def concentration(seed: int) -> dict:
    bundles = []
    for b in range(POOL):
        rng = _rng(seed, 3, b)
        items = []
        for m in CONCENTRATION_SIZES:
            spec = cosh_spec(rng, m, (1.0, 16.0))
            k0, k1, kap = (float(v) for v in rng.uniform(0.05, 0.4, size=3))
            items.append({"spec": spec, "k0": k0, "k1": k1, "kappa": kap})
        bundles.append(items)
    return {"bundles": bundles, "collapse": dict(COLLAPSE)}


def finite_space(rng: np.random.Generator, n: int) -> dict:
    pts = rng.random((n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return {"n": n, "dist": dist,
            "weights": dyadic_weights(rng, n, 1.0, floor=1),
            "mu": dyadic_weights(rng, n, 0.3),
            "nu": dyadic_weights(rng, n, 0.3),
            "lam": dyadic_weights(rng, n, 0.3),
            "f": rng.random(n), "g": rng.random(n),
            "suite_seed": int(rng.integers(0, 2 ** 31))}


def space_json(space: dict) -> str:
    """Finite-space document in the schema the CLI and from_json read."""
    return json.dumps({"points": list(range(space["n"])),
                       "dist": space["dist"].tolist(),
                       "weights": space["weights"].tolist()})


def finite_lp(seed: int) -> dict:
    bundles = []
    for b in range(POOL):
        rng = _rng(seed, 4, b)
        bundles.append([finite_space(rng, n) for n in FINITE_SIZES])
    return {"bundles": bundles}


def cli(seed: int) -> dict:
    """One fixed set of small inputs: every bundle reruns the same commands,
    so two bundles must write byte-identical reports."""
    rng = _rng(seed, 5)
    space = finite_space(rng, 10)
    ent_n = 12
    conv_K = float(rng.uniform(0.5, 2.0))
    conv_N = float(rng.uniform(-3.0, -0.5))
    conv_lam = math.sqrt(conv_K / (1.0 - conv_N)) * float(rng.uniform(1.0, 1.5))
    conv_h = 0.02
    x = np.arange(-100, 101) * conv_h
    conv_f = -(conv_N - 1.0) * np.log(np.cosh(conv_lam * x))
    return {
        "space": space,
        "entropy": {"mu": dyadic_weights(rng, ent_n, 1.0, floor=1),
                    "nu": dyadic_weights(rng, ent_n, 0.5),
                    "nprime": float(rng.uniform(-3.0, -0.2))},
        "kyfan": {"weights": dyadic_weights(rng, 16, 1.0, floor=1),
                  "f": rng.random(16), "g": rng.random(16)},
        "convexity": {"f": conv_f, "K": conv_K, "N": conv_N - 1.0,
                      "h": conv_h},
        "sinh": {"K": float(rng.uniform(0.5, 2.0)),
                 "N": float(rng.uniform(-2.0, -0.5))},
        "collapse": dict(CLI_COLLAPSE),
        "lemma": dict(CLI_LEMMA, seed=int(rng.integers(0, 2 ** 31))),
    }


GENERATORS = {"geodesic": geodesic, "concentration": concentration,
            "finite-lp": finite_lp, "cli": cli}
