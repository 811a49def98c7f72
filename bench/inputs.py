"""Seeded input generators and closed forms for the benchmark workloads.

The workload seed draws the orientation of every input: eigenbases, gauge
eigenvectors, precession azimuths, global frames and wobble directions. The
quantities that set the discretization error are fixed per workload: target
eigenphases, wobble-loop shapes, and precession tilts, one per stratum of a
fixed range. Holonomy errors are invariant under a change of orientation, so
the accuracy metrics of two seeds compare like with like while every array
the program sees still changes with the seed.

Only numpy is used here; nothing in this module calls holonomy_lab.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)

# Wobble-loop shapes: (p, m, dim, winding numbers of the frame generator).
WOBBLE_SHAPES = (
    ((0.7, 0.3), (1, 1), 2, (1, 0)),
    ((0.4, 0.2), (2, 1), 3, (1, 0, -1)),
    ((0.5, 0.25), (1, 2), 4, (1, 0, 0, -1)),
)
# Fixed, not the workload seed: the shape frames set the discretization
# error. This catalogue keeps every closed-form phase at least 0.6 rad from
# the 0/2pi wrap and from the other phases of its block, so sorted phases
# pair up with their references.
SHAPE_SEED = 9


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def spectrum_diag(p, m, dim: int) -> np.ndarray:
    """Eigenvalues p_j repeated m_j times, padded with zeros to dim."""
    d = np.zeros(dim)
    d[: sum(m)] = np.repeat(p, m)
    return d


def random_state(rng: np.random.Generator, p, m, dim: int) -> np.ndarray:
    """Density matrix with block spectrum (p, m) in a Haar-random eigenbasis."""
    v = haar_unitary(rng, dim)
    return _hermitize((v * spectrum_diag(p, m, dim)) @ v.conj().T)


def block_gauge(rng: np.random.Generator, m, phases) -> np.ndarray:
    """Block-diagonal unitary with the given eigenphases (slot order) and
    Haar-random eigenvectors inside each block."""
    u = np.zeros((sum(m), sum(m)), dtype=np.complex128)
    lo = 0
    for mj in m:
        q = haar_unitary(rng, mj)
        u[lo : lo + mj, lo : lo + mj] = (q * np.exp(1j * np.asarray(phases[lo : lo + mj]))) @ q.conj().T
        lo += mj
    return u


def ihb(p, m, phases) -> float:
    """Isoholonomic bound sqrt(sum_slots p_slot theta (2pi - theta))."""
    th = np.asarray(phases, dtype=float)
    return float(np.sqrt(np.sum(np.repeat(p, m) * th * (TWO_PI - th))))


def phase_error(numeric_blocks, exact_blocks) -> float:
    """Largest wrapped distance between matching sorted eigenphases."""
    worst = 0.0
    for got, want in zip(numeric_blocks, exact_blocks):
        d = np.abs(np.sort(np.asarray(got, dtype=float)) - np.sort(np.asarray(want, dtype=float)))
        worst = max(worst, float(np.max(np.minimum(d, TWO_PI - d))))
    return worst


# ---------------------------------------------------------------------------
# precessing qubit


def qubit_axes(rng: np.random.Generator, count: int, lo: float = 0.1, hi: float = 0.95) -> np.ndarray:
    """Unit precession axes, one tilt n3 per equal stratum of [lo, hi] at a
    seeded offset, each with a seeded azimuth."""
    n3 = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    azimuth = rng.uniform(0.0, TWO_PI, size=count)
    s = np.sqrt(1.0 - n3**2)
    return np.stack([s * np.cos(azimuth), s * np.sin(azimuth), n3], axis=1)


def qubit_hamiltonian(axis, omega: float) -> np.ndarray:
    return 0.5 * omega * sum(a * s for a, s in zip(axis, PAULI))


def qubit_phases(n3: float) -> tuple[float, float]:
    """Holonomy eigenphases pi (1 +- n3) of one precession period."""
    return np.pi * (1.0 + n3), np.pi * (1.0 - n3)


def qubit_bound(n3: float, p0: float, tau: float) -> float:
    """Speed-limit bound tau sqrt((1 - n3^2) / (1 - n3^2 (2 p0 - 1)^2))."""
    return tau * float(np.sqrt((1.0 - n3**2) / (1.0 - n3**2 * (2.0 * p0 - 1.0) ** 2)))


# ---------------------------------------------------------------------------
# wobble loops: spectrum-varying closed curves with closed-form holonomy


def _shape_frame(index: int) -> np.ndarray:
    dim = WOBBLE_SHAPES[index][2]
    return haar_unitary(np.random.default_rng([SHAPE_SEED, index]), dim)


def wobble_loop(rng: np.random.Generator, index: int, n: int, tau: float = 1.0,
                wobble: float = 0.04) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Closed state curve whose eigenvalues breathe along a seeded zero-sum
    direction while the eigenframe turns once under a commensurate generator.

    The frame is U(t) = exp(-i H t) V0 with H = G diag(2 pi k / tau) G^dag
    and V0 = G F, where G is a seeded global frame and F the shape frame.
    exp(-i H tau) = 1, so the holonomy of block j is exp(i tau H_jj) with
    H_jj = F_j^dag diag(2 pi k / tau) F_j, whatever G and the eigenvalues do.

    Returns (samples (n, dim, dim), alpha, exact eigenphases per block);
    alpha is 0.8 times each block's smallest eigenvalue along the path.
    """
    p, m, dim, winding = WOBBLE_SHAPES[index]
    p = np.asarray(p, dtype=float)
    mv = np.asarray(m, dtype=int)
    direction = rng.standard_normal(p.size)
    direction -= mv * (direction @ mv) / (mv @ mv)
    gaps = np.concatenate([p[:-1] - p[1:], [p[-1]]])
    direction *= wobble * np.min(gaps) / np.max(np.abs(direction))
    ts = np.linspace(0.0, tau, n)
    p_t = p[None, :] + np.sin(TWO_PI * ts / tau)[:, None] * direction[None, :]

    frame = _shape_frame(index)
    g = haar_unitary(rng, dim)
    rates = TWO_PI * np.asarray(winding, dtype=float) / tau
    u_t = (g[None, :, :] * np.exp(-1j * ts[:, None] * rates[None, :])[:, None, :]) @ frame
    lam = np.zeros((n, dim))
    lam[:, : mv.sum()] = np.repeat(p_t, mv, axis=1)
    samples = _hermitize((u_t * lam[:, None, :]) @ np.conj(np.swapaxes(u_t, -1, -2)))

    exact, lo = [], 0
    for mj in m:
        f = frame[:, lo : lo + mj]
        h_jj = f.conj().T @ (rates[:, None] * f)
        exact.append(np.mod(tau * np.linalg.eigvalsh(h_jj), TWO_PI))
        lo += mj
    return samples, 0.8 * p_t.min(axis=0), exact


# ---------------------------------------------------------------------------
# files in the CLI's JSON formats


def _matrix_json(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_state(path: Path, rho: np.ndarray) -> None:
    _write(path, {"dim": rho.shape[0], "matrix": _matrix_json(rho)})


def write_unitary(path: Path, u: np.ndarray, m) -> None:
    _write(path, {"matrix": _matrix_json(u), "basis": {"m": list(m)}})


def write_curve(path: Path, tau: float, samples: np.ndarray) -> None:
    _write(path, {"tau": tau, "samples": _matrix_json(samples)})
