"""``import hrlmc`` loads no scipy module; each scipy module loads where it is used.

Every check runs in a fresh interpreter, since this test process has already
imported scipy.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import hrlmc
from hrlmc import entropy as ent, target as tgt

SRC = str(Path(hrlmc.__file__).resolve().parent.parent)


def _fresh(code, cwd):
    """The scipy modules loaded after ``code`` ran in a fresh interpreter, and its stdout."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n" + (
            "import json\nprint(json.dumps(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))))"
        )],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    *printed, loaded = out.stdout.splitlines()
    return json.loads(loaded), printed


def test_import_loads_no_scipy(tmp_path):
    assert _fresh("import hrlmc", tmp_path)[0] == []


def test_burg_sample_loads_no_scipy(tmp_path):
    loaded, _ = _fresh(
        "from hrlmc import cli\n"
        "assert cli.main(['sample', '--entropy', 'burg', '--target', 'gamma:a=5,b=1', "
        "'--h', '0.05', '--steps', '5', '--out', 't.csv']) == 0",
        tmp_path,
    )
    assert loaded == []
    assert (tmp_path / "t.csv").exists()


def test_exact_1d_convergence_experiment_loads_no_scipy(tmp_path):
    loaded, _ = _fresh(
        "from hrlmc.experiments import ExperimentConfig, run_convergence_experiment\n"
        "run_convergence_experiment(ExperimentConfig(\n"
        "    entropy='burg', target='gamma:a=5;b=1', schedule='constant:h=0.05', steps=10,\n"
        "    chains=64, x0=(1.0,), checkpoints=(0, 10), reference_seeds=2,\n"
        "    distance_method='exact-1d'))",
        tmp_path,
    )
    assert loaded == []


def test_assignment_resolution_loads_the_solver(tmp_path):
    # Forked distance workers inherit what the parent loaded here.
    loaded, printed = _fresh(
        "from hrlmc import metrics\nprint(metrics.resolve_method('auto', 64, 64, 2))",
        tmp_path,
    )
    assert printed == ["assignment"]
    assert {"scipy.optimize", "scipy.spatial.distance"} <= set(loaded)


def test_mixed_inverse_and_quadrature_import_scipy_on_first_use(tmp_path):
    y = [[-2.0, 0.5], [-0.25, -3.0]]
    mix = ent.mixed([0.0, 0.5])
    gamma = tgt.gamma_target([5.0], [1.0])
    loaded, printed = _fresh(
        "from hrlmc import entropy as ent, target as tgt\n"
        f"print(ent.mixed([0.0, 0.5]).grad_conjugate({y}).tolist())\n"
        "print(repr(tgt.r_constant(tgt.gamma_target([5.0], [1.0]), 'quadrature').value))",
        tmp_path,
    )
    assert {"scipy.special", "scipy.integrate"} <= set(loaded)
    assert json.loads(printed[0]) == mix.grad_conjugate(np.array(y)).tolist()
    assert float(printed[1]) == tgt.r_constant(gamma, "quadrature").value
