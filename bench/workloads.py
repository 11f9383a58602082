"""The benchmark's four workloads: inputs from a seed, the timed call, checks.

The workload seed replaces the program's ``base_seed`` / ``--seed``; every
other input is fixed, so the same seed gives the same inputs and the program
receives only those inputs.

* ``sweep``    the criterion-10 dimension sweep.  Assignment solves at n=512
               and the per-row rejection/retry path at p=8 share its cost;
               the only workload where the assignment layer dominates.
* ``converge`` the 4096-chain Gamma/Burg convergence run of criterion 7.  The
               sampler is very wide and very short; per-chain RNG setup, the
               per-chain restack, exact 1-d distances and reference draws
               dominate, and assignment is never called.
* ``sample``   ``hrlmc sample`` with 64 chains x 10^4 steps at thin 1: the
               per-step Python overhead of the sampler and the CLI's CSV
               output layer.
* ``mixed``    ``hrlmc sample`` with the mixed entropy: the only workload that
               runs the iterative mirror inverse; the CSV is negligible.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import hrlmc
from hrlmc import cli, experiments
from hrlmc.entropy import parse_entropy
from hrlmc.experiments import ExperimentConfig
from hrlmc.sampler import constant_schedule, parse_schedule
from hrlmc.target import parse_target

WORKLOADS = ("sweep", "converge", "sample", "mixed")

_CONFIGS = {
    "sweep": {
        "entropy": "burg",
        "target": "gamma:a=5;b=1",
        "schedule": "constant:h=0.2",
        "steps": "160",
        "chains": "512",
        "x0": "1",
        "checkpoints": "60,85,110,135,160",
        "reference_seeds": "20",
        "plateau_window": "5",
        "dims": "1,2,4,8",
    },
    "converge": {
        "entropy": "burg",
        "target": "gamma:a=5;b=1",
        "schedule": "constant:h=0.05",
        "steps": "200",
        "chains": "4096",
        "x0": "0.2",
        "checkpoints": ",".join(str(k) for k in [*range(0, 21, 2), *range(30, 201, 10)]),
        "reference_seeds": "20",
    },
}

_SAMPLE_ARGS = {
    "sample": ["--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
               "--chains", "64", "--steps", "10000", "--thin", "1", "--x0", "1.0"],
    "mixed": ["--entropy", "mixed:a=0,0.5", "--target", "gamma:a=5,5;b=1,1", "--h", "0.05",
              "--chains", "256", "--steps", "1000", "--thin", "50", "--x0", "1.0"],
}

# Criterion 7: contraction factor of Gamma(5,1)/Burg at h = 0.05.
_RHO_GAMMA_BURG = 0.86023


def inputs(name: str, seed: int, out: str = "out.csv") -> dict:
    """The program's inputs for one workload and seed, as plain data."""
    if name in _CONFIGS:
        fields = dict(_CONFIGS[name], base_seed=str(seed))
        return {"config": "".join(f"{k} = {v}\n" for k, v in fields.items())}
    if name in _SAMPLE_ARGS:
        return {"argv": ["sample", *_SAMPLE_ARGS[name], "--seed", str(seed), "--out", out]}
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def checkout_check(root: Path):
    """Refuse to measure an hrlmc other than the one under ``root/src``."""
    found = Path(hrlmc.__file__).resolve().parent
    if found != (root / "src" / "hrlmc").resolve():
        raise RuntimeError(f"hrlmc was imported from {found}, not from this checkout")


class Experiment:
    """``sweep`` (a config with ``dims``) or ``converge``: one experiment call."""

    def __init__(self, config_text: str):
        self.config = ExperimentConfig.from_text(config_text)
        self.sweep = bool(self.config.dims)
        # Parsed here so that set-up time covers them; the experiment
        # functions parse the config again themselves.
        target = parse_target(self.config.target)
        dims = self.config.dims or (target.dim,)
        self.entropies = [parse_entropy(self.config.entropy, dim=p) for p in dims]
        self.schedule = parse_schedule(self.config.schedule)

    def call(self):
        # Called through the module, so a traced run sees the patched function.
        if self.sweep:
            return experiments.run_dimension_sweep(self.config)
        return experiments.run_convergence_experiment(self.config)

    def digest(self, result) -> str:
        return "sha256:" + hashlib.sha256(result.to_csv().encode()).hexdigest()

    def check(self, result) -> list[str]:
        """Failures that no seed excuses: shapes, finiteness, row counts."""
        problems = []
        if self.sweep:
            n = len(self.config.dims)
            arrays = {"plateaus": result.plateaus, "raw_medians": result.raw_medians,
                      "baselines": result.baselines}
            if list(result.dims) != list(self.config.dims):
                problems.append(f"dims {list(result.dims)} != {list(self.config.dims)}")
        else:
            n = len(self.config.checkpoints)
            arrays = {"medians": result.medians, "iqrs": result.iqrs,
                      "bound_values": result.bound_values}
            if list(result.checkpoints) != sorted(self.config.checkpoints):
                problems.append("checkpoints differ from the config")
            for k, vals in result.distances.items():
                if np.shape(vals) != (self.config.reference_seeds,) or not np.all(
                    np.isfinite(vals)
                ):
                    problems.append(f"distances at k={k}: bad shape or non-finite")
            for key in ("floor", "rho", "w0_hat"):
                if not np.isfinite(getattr(result, key)):
                    problems.append(f"{key} is not finite")
        for key, arr in arrays.items():
            if np.shape(arr) != (n,):
                problems.append(f"{key} has shape {np.shape(arr)}, expected ({n},)")
            elif not np.all(np.isfinite(arr)) or np.any(np.asarray(arr) < 0.0):
                problems.append(f"{key} has non-finite or negative values")
        rows = [ln for ln in result.to_csv().splitlines()[1:] if not ln.startswith("#")]
        if len(rows) != n:
            problems.append(f"CSV has {len(rows)} data rows, expected {n}")
        return problems

    def statistics(self, result) -> dict:
        """Seed-dependent acceptance checks, reported but never gated on."""
        if self.sweep:
            monotone = bool(np.all(np.diff(result.plateaus) > 0.0))
            return {
                "criterion_10_slope": float(result.slope),
                "criterion_10_pass": monotone and 0.25 <= result.slope <= 0.75,
            }
        allowed = result.bound_values + 3.0 * result.iqrs
        violations = [int(k) for k, m, a in zip(result.checkpoints, result.medians, allowed)
                      if not m <= a]
        rho_ok = abs(result.rho - _RHO_GAMMA_BURG) <= 1e-4 * _RHO_GAMMA_BURG
        return {
            "criterion_07_rho": float(result.rho),
            "criterion_07_violations": violations,
            "criterion_07_pass": rho_ok and not violations,
        }

    def output_size(self, result) -> tuple[int, int]:
        return 0, 0


class Sample:
    """``sample`` or ``mixed``: one ``hrlmc sample`` call writing a CSV file."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self.args = cli.build_parser().parse_args(self.argv)
        self.out = Path(self.args.out)
        # The target and schedule are parsed so that set-up time covers
        # them; the entropy also serves the domain check.
        target = parse_target(self.args.target)
        self.entropy = parse_entropy(self.args.entropy, dim=target.dim)
        self.schedule = constant_schedule(self.args.h)

    def call(self):
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"hrlmc sample exited with code {code}")
        return code

    def _chunks(self):
        with open(self.out, "rb") as fh:
            while chunk := fh.read(1 << 20):
                yield chunk

    def digest(self, code) -> str:
        h = hashlib.sha256()
        for chunk in self._chunks():
            h.update(chunk)
        return "sha256:" + h.hexdigest()

    def check(self, code) -> list[str]:
        """Exact header and row layout, finite points inside the domain."""
        a, p = self.args, self.entropy.dim
        with open(self.out) as fh:
            header = fh.readline().rstrip("\n")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        expected = "chain,step,h," + ",".join(f"x_{j + 1}" for j in range(p))
        if header != expected:
            return [f"header {header!r} != {expected!r}"]
        ks = np.arange(a.burn_in, a.steps + 1, a.thin)
        if data.shape != (a.chains * ks.size, 3 + p):
            return [f"CSV shape {data.shape}, expected {(a.chains * ks.size, 3 + p)}"]
        problems = []
        if not np.all(np.isfinite(data)):
            problems.append("non-finite values")
        if not np.array_equal(data[:, 0], np.repeat(np.arange(a.chains), ks.size)):
            problems.append("chain column out of order")
        if not np.array_equal(data[:, 1], np.tile(ks, a.chains)):
            problems.append("step column out of order")
        if not np.array_equal(data[:, 2], np.where(data[:, 1] == 0, 0.0, a.h)):
            problems.append("step-size column differs from --h")
        outside = int(np.sum(~self.entropy.contains(data[:, 3:])))
        if outside:
            problems.append(f"{outside} recorded points outside the entropy's domain")
        return problems

    def statistics(self, code) -> dict:
        return {}

    def output_size(self, code) -> tuple[int, int]:
        """(data rows, bytes) of the written CSV."""
        lines = size = 0
        for chunk in self._chunks():
            lines += chunk.count(b"\n")
            size += len(chunk)
        return lines - 1, size


def prepare(name: str, seed: int, workdir: Path):
    """Parse every input of a workload; this is the set-up a user pays."""
    if name in _CONFIGS:
        return Experiment(inputs(name, seed)["config"])
    if name in _SAMPLE_ARGS:
        return Sample(inputs(name, seed, str(Path(workdir) / f"{name}.csv"))["argv"])
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")

