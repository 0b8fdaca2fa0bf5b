"""Seeded inputs, timed passes and output checks for the cubicobs benchmark.

One pass runs every operation of a workload once, through the package's
public entry points: ``examples.compute_bundle``, ``cli.write_bundle`` and
``cli.main``. Why these three workloads:

studies
    ``cubicobs example 1``, ``cubicobs example 2`` and ``sweep-gamma`` on the
    shipped example config with 8 gammas drawn from the seed on the grid
    {0.0, 0.1, ..., 5.0}. About two dozen independent RK4 runs of 3000-4000
    steps at n = 2-3 and about 7 MB of CSV: the simulator dominates, spread
    over many same-sized runs. This is where a batched integrator or a
    cheaper field/RK4 step shows, and where the writer barely matters.
closed_loop
    ``cubicobs example 3``: two 60000-step closed-loop runs and about 60 MB
    of CSV written into a directory that is deleted after the pass. One
    long run pair, so batching helps little, and the writer takes about a
    third of the time. The only workload with feedback, LQR weights and
    the cost series. It runs with ``--workload closed_loop`` but is not
    declared in BENCHMARK.json: a pass takes about 16 s, so a run holds
    two, and on the 2-vCPU host the benchmark was built on, CPU speed swung
    by up to 30% over minutes, which gave its ten-run spread 0.15-0.32.
design_scaling
    ``cubicobs design <cfg> --out <file>`` on 40 generated configs with
    n in {4, 8, 16, 24, 32} and 2 outputs; half carry a feedback section,
    the rest run with ``--equilibrium-search``. No simulation and no CSV:
    the work is the Kronecker Lyapunov solve (n^2 x n^2), the certificates,
    the Newton equilibrium search and config parsing. A change to the
    simulator or the writer should move nothing here. The sizes stop at 32
    because the Lyapunov solve grows as n^6 and because the plant's Krylov
    observability test stops accepting these systems reliably above it.

Random single-output plants fail the observability test above n of about
10, so design_scaling plants are built to be observable and stable: a
skew-symmetric ``a`` with unit spectral norm, 2 random outputs, observer
gain ``lc = k c'`` and feedback ``K = kappa b'``. Then ``a - lc c`` and
``a - b K`` have negative semidefinite symmetric parts and are Hurwitz
whenever the pair is observable (controllable). Draws too close to the
package's rank threshold, too weakly damped or with a feedback-certificate
scale near a grid boundary are redrawn, so no operation fails and every
verdict is robust to rounding.

Checks: bundle files and sweep rows must be byte-identical to the digests
and rows in ``expected.json`` (made by ``record_expected.py``); design
documents must give the verdicts this module derives in closed form and
numbers within ``RTOL`` of an independent eigendecomposition-based
reference.
"""

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from cubicobs import cli, examples

WORKLOADS = ("studies", "closed_loop", "design_scaling")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# the shipped docs/example_config.json; the sweep-gamma input
SWEEP_CONFIG = {
    "system": {
        "a": [[0.0, 1.0], [0.0, 0.0]],
        "b": [[0.0], [1.0]],
        "c": [[1.0, 0.0]],
    },
    "observer": {
        "type": "cubic",
        "poles": [-2.0, -5.0],
        "q": 10.0,
        "theta": 10.0,
        "gamma": 2.0,
    },
    "sim": {
        "horizon": 4.0,
        "dt": 0.001,
        "x0": [-3.0, -3.0],
        "input": {"kind": "sinusoid", "amplitude": [1.0], "angular_frequency": 1.0},
    },
}
# sweep gammas are k / 10 for k in range(GAMMA_GRID)
GAMMA_GRID = 51
N_GAMMAS = 8

DESIGN_SIZES = (4, 8, 16, 24, 32)
N_DESIGNS = 40
N_OUTPUTS = 2
N_INPUTS = 2
# redraw a plant whose Krylov matrix has a relative singular value below
# this (the package rejects below 1e-9)
MIN_OBSERVABILITY_SV = 1e-8
# redraw a plant whose observer or feedback loop decays slower than this
MIN_DECAY = 1e-3
# relative tolerance for design-document numbers against the reference
RTOL = 1e-9


def grid_steps(horizon, dt):
    """Steps of the simulator's uniform grid over [0, horizon]."""
    return int(np.ceil(horizon / dt - 1e-9))


def bundle_runs(number):
    """Simulator runs compute_bundle(number) makes, from the fixture."""
    fx = examples.get_example(number)
    runs = 2 + len(fx.sweep_gammas or ())
    if fx.eps_study is not None:
        runs += 2
    return runs, grid_steps(fx.sim.horizon, fx.sim.dt)


@dataclass
class Op:
    """One operation of a pass: a bundle, a gamma sweep or a design."""

    kind: str
    name: str
    args: dict = field(default_factory=dict)


@dataclass
class Inputs:
    work_dir: str
    ops: list
    steps_per_pass: int


@dataclass
class PassResult:
    """Per-operation seconds of one pass, in op order, and its failures.

    op_wall_s is each operation's elapsed time without its output check;
    op_compute_s and op_write_s are the parts spent computing and writing.
    """

    op_wall_s: list
    op_compute_s: list
    op_write_s: list
    attempted: int
    failed: int
    failures: list


# ---------------------------------------------------------------------------
# input generation


def _write_json(path, doc):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def draw_gammas(rng):
    """N_GAMMAS distinct grid indices k (gamma = k / 10), in draw order."""
    return [int(k) for k in rng.choice(GAMMA_GRID, size=N_GAMMAS, replace=False)]


def gamma_text(k):
    return f"{k / 10:.1f}"


def skew(rng, n):
    g = rng.standard_normal((n, n))
    a = g - g.T
    return a / np.linalg.norm(a, 2)


def _min_relative_sv(a, c):
    blocks = [c]
    for _ in range(a.shape[0] - 1):
        blocks.append(blocks[-1] @ a)
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return sv[-1] / sv[0]


def abscissa(m):
    return float(np.max(np.linalg.eigvals(m).real))


def lyapunov_by_eig(f, q):
    """P with f' P + P f = -q, by eigendecomposition (independent of numlin)."""
    lam, v = np.linalg.eig(f)
    rhs = v.T @ q @ v
    x = -rhs / (lam[:, None] + lam[None, :])
    vinv = np.linalg.inv(v)
    p = (vinv.T @ x @ vinv).real
    return 0.5 * (p + p.T)


def _sym_eigs(m):
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def design_reference(a, b, c, k_lc, gamma, feedback_k):
    """Expected verdicts and numbers of ``cubicobs design`` for one config.

    q = I and theta = I. The observer block of the certificate is then
    exactly -I, so the feedback scale beta is the first power of ten above
    sigma_max(p1 b K)^2, with p1 solving the loop's Lyapunov equation.
    Returns None when a verdict would sit within rounding of a threshold.
    """
    n = a.shape[0]
    s = c.T @ c
    f = a - k_lc * s
    p = lyapunov_by_eig(f, np.eye(n))
    nc = -gamma * np.linalg.solve(p, c.T)
    d = p @ nc @ c + c.T @ nc.T @ p
    m = s @ np.linalg.solve(f, nc @ c)
    d_eigs = _sym_eigs(d)
    m_eigs = _sym_eigs(m)
    ref = {
        "p": p,
        "gain_nc": nc,
        "verdicts": {
            "hurwitz_ok": True,
            "damping_ok": True,
            "damping_strict": False,
            "damping_mode": "semidefinite",
            "uniqueness_ok": True,
            "stability_ok": True,
            "all_ok": True,
        },
        # name -> (value, scale the tolerance is relative to)
        "numbers": {
            "robustness_eps_max": (0.5 / _sym_eigs(p)[-1], 0.0),
            "margins.q_min_eig": (1.0, 0.0),
            "margins.spectral_abscissa": (abscissa(f), np.linalg.norm(f, 2)),
            "margins.hurwitz_margin": (1.0, 0.0),
            "margins.damping_margin": (-d_eigs[-1], abs(d_eigs[0])),
            "margins.damping_min_eig": (d_eigs[0], 0.0),
            "margins.uniqueness_min_eig": (m_eigs[0], abs(m_eigs[-1])),
        },
    }
    if feedback_k is None:
        ref["numbers"]["margins.nonzero_equilibria_found"] = (0.0, 0.0)
        return ref
    acl = a - b @ feedback_k
    p1 = lyapunov_by_eig(acl, np.eye(n))
    sigma2 = float(np.linalg.norm(p1 @ b @ feedback_k, 2) ** 2)
    exponent = np.log10(sigma2)
    if exponent > 7.5 or abs(exponent - round(exponent)) < 0.01:
        return None
    beta = 10.0 ** max(0, int(np.floor(exponent)) + 1)
    ref["verdicts"].update(
        feedback_ok=True, feedback_beta=beta, feedback_unscaled_ok=sigma2 < 1.0
    )
    ref["numbers"].update(
        {
            "margins.feedback_spectral_abscissa": (
                abscissa(acl),
                np.linalg.norm(acl, 2),
            ),
            "margins.feedback_psi_max_eig": (_psi_max(sigma2, beta), beta),
            "margins.feedback_unscaled_max_eig": (_psi_max(sigma2, 1.0), 1.0),
        }
    )
    return ref


def _psi_max(sigma2, beta):
    """Largest eigenvalue of [[-I, X], [X', -beta I]] with ||X||^2 = sigma2."""
    half = 0.5 * (beta - 1.0)
    return -0.5 * (1.0 + beta) + np.sqrt(half * half + sigma2)


def draw_design(rng, n, feedback):
    """One design_scaling config and its reference, redrawn until robust."""
    k_lc = kappa = 1.0 / n
    while True:
        a = skew(rng, n)
        c = rng.standard_normal((N_OUTPUTS, n))
        b = rng.standard_normal((n, N_INPUTS))
        gamma = float(rng.uniform(0.5, 2.0))
        if _min_relative_sv(a, c) < MIN_OBSERVABILITY_SV:
            continue
        if abscissa(a - k_lc * c.T @ c) > -MIN_DECAY:
            continue
        feedback_k = kappa * b.T if feedback else None
        if feedback and abscissa(a - b @ feedback_k) > -MIN_DECAY:
            continue
        ref = design_reference(a, b, c, k_lc, gamma, feedback_k)
        if ref is None:
            continue
        cfg = {
            "system": {"a": a.tolist(), "b": b.tolist(), "c": c.tolist()},
            "observer": {
                "type": "cubic",
                "gain_lc": (k_lc * c.T).tolist(),
                "q": 1.0,
                "theta": 1.0,
                "gamma": gamma,
            },
        }
        if feedback:
            cfg["feedback"] = {"k": feedback_k.tolist()}
        return cfg, ref


def generate(workload, seed, work_dir):
    """Make the inputs of one workload from the seed, under work_dir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    os.makedirs(work_dir, exist_ok=True)
    ops = []
    steps = 0
    if workload == "studies":
        for number in (1, 2):
            ops.append(Op("bundle", f"example {number}", {"number": number}))
            runs, per_run = bundle_runs(number)
            steps += runs * per_run
        cfg_path = os.path.join(work_dir, "sweep_config.json")
        _write_json(cfg_path, SWEEP_CONFIG)
        ks = draw_gammas(rng)
        ops.append(Op("sweep", "sweep-gamma", {"config": cfg_path, "ks": ks}))
        sim = SWEEP_CONFIG["sim"]
        steps += len(ks) * grid_steps(sim["horizon"], sim["dt"])
    elif workload == "closed_loop":
        ops.append(Op("bundle", "example 3", {"number": 3}))
        runs, per_run = bundle_runs(3)
        steps += runs * per_run
    else:
        for i in range(N_DESIGNS):
            n = DESIGN_SIZES[i % len(DESIGN_SIZES)]
            feedback = (i // len(DESIGN_SIZES)) % 2 == 0
            cfg, ref = draw_design(rng, n, feedback)
            cfg_path = os.path.join(work_dir, f"design_{i:02d}_n{n}.json")
            _write_json(cfg_path, cfg)
            extra = []
            if not feedback:
                extra = ["--equilibrium-search", "--seed", str(int(rng.integers(1 << 16)))]
            ops.append(
                Op("design", f"design n={n}", {"config": cfg_path, "extra": extra, "ref": ref})
            )
    return Inputs(work_dir, ops, steps)


# ---------------------------------------------------------------------------
# checks


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


def file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        digest = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            # in chunks, so checking adds little to the peak RSS it measures
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        out[name] = digest.hexdigest()
    return out


def check_bundle(out_dir, number, expected):
    """Problems with a written bundle; empty when byte-identical."""
    want = expected["bundles"][str(number)]
    got = file_digests(out_dir)
    problems = [f"missing {name}" for name in sorted(set(want) - set(got))]
    problems += [f"unexpected {name}" for name in sorted(set(got) - set(want))]
    problems += [
        f"{name} differs" for name in sorted(set(want) & set(got)) if want[name] != got[name]
    ]
    return problems


def check_sweep(path, ks, expected):
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    want = [expected["sweep_header"]] + [expected["sweep_rows"][k] for k in sorted(ks)] + [""]
    if lines == want:
        return []
    return [f"sweep table differs from the recorded rows for gammas {sorted(ks)}"]


def _lookup(doc, dotted):
    for part in dotted.split("."):
        doc = doc[part]
    return doc


def check_design(doc, ref):
    """Problems with a design document against its reference."""
    problems = []
    cert = doc["certificate"]
    for key, want in ref["verdicts"].items():
        if cert.get(key) != want:
            problems.append(f"certificate.{key} is {cert.get(key)!r}, expected {want!r}")
    for name in ("p", "gain_nc"):
        got = np.array(doc["design"][name])
        want = ref[name]
        if got.shape != want.shape or np.max(np.abs(got - want)) > RTOL * np.max(np.abs(want)):
            problems.append(f"design.{name} differs from the reference beyond rtol {RTOL}")
    for key, (want, scale) in ref["numbers"].items():
        try:
            got = float(_lookup(cert, key))
        except (KeyError, TypeError):
            problems.append(f"certificate.{key} is missing")
            continue
        if abs(got - want) > RTOL * max(abs(want), scale):
            problems.append(f"certificate.{key} = {got!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# passes


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _run_op(op, pass_dir, expected):
    """Run one operation; returns (compute_s, write_s, check_s, problems)."""
    if op.kind == "bundle":
        out_dir = os.path.join(pass_dir, f"example{op.args['number']}")
        bundle, compute = _timed(examples.compute_bundle, op.args["number"])
        _, write = _timed(cli.write_bundle, bundle, out_dir)
        del bundle
        t0 = time.perf_counter()
        problems = check_bundle(out_dir, op.args["number"], expected)
        check = time.perf_counter() - t0
        shutil.rmtree(out_dir)
        return compute, write, check, problems
    out = os.path.join(pass_dir, "out")
    if op.kind == "sweep":
        gammas = ",".join(gamma_text(k) for k in op.args["ks"])
        argv = ["sweep-gamma", op.args["config"], "--gammas", gammas, "--out", out]
    else:
        argv = ["design", op.args["config"], "--out", out] + op.args["extra"]
    code, compute = _timed(cli.main, argv)
    t0 = time.perf_counter()
    if code != 0:
        problems = [f"exit code {code}"]
    elif op.kind == "sweep":
        problems = check_sweep(out, op.args["ks"], expected)
    else:
        with open(out) as fh:
            problems = check_design(json.load(fh), op.args["ref"])
    check = time.perf_counter() - t0
    if os.path.exists(out):
        os.remove(out)
    return compute, 0.0, check, problems


def run_pass(inputs, expected):
    """Run every operation once and check its output."""
    pass_dir = os.path.join(inputs.work_dir, "pass")
    os.makedirs(pass_dir, exist_ok=True)
    result = PassResult([], [], [], len(inputs.ops), 0, [])
    for op in inputs.ops:
        t0 = time.perf_counter()
        try:
            compute, write, check, problems = _run_op(op, pass_dir, expected)
        except Exception as exc:  # a crashing operation is a counted failure
            compute = write = check = 0.0
            problems = [f"{type(exc).__name__}: {exc}"]
        result.op_wall_s.append(time.perf_counter() - t0 - check)
        result.op_compute_s.append(compute)
        result.op_write_s.append(write)
        if problems:
            result.failed += 1
            result.failures.append({"op": op.name, "problems": problems})
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result
