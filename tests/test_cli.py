"""CLI surface tests: subcommands, wire formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from hrlmc import cli, errors
from hrlmc.sampler import Trace


def run_cli(argv):
    return cli.main(argv)


def test_sample_writes_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = run_cli([
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--h", "0.05", "--steps", "20", "--chains", "2", "--seed", "3",
        "--x0", "1.0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "chain,step,h,x_1"
    assert len(lines) == 1 + 2 * 21
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "0"]
    assert float(lines[2].split(",")[2]) == 0.05


def test_sample_rerun_byte_identical(tmp_path):
    args = [
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--h", "0.05", "--steps", "50", "--chains", "3", "--seed", "11",
        "--x0", "0.5", "--burn-in", "10", "--thin", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _per_value_csv(trace, p):
    """Reference for the streamed writer: the CSV built one value at a time."""
    lines = ["chain,step,h," + ",".join(f"x_{j + 1}" for j in range(p))]
    for c, tr in enumerate(trace):
        for i, k in enumerate(tr.steps):
            coords = ",".join(format(float(v), ".17g") for v in tr.points[i])
            lines.append(f"{c},{int(k)},{format(float(tr.step_sizes[i]), '.17g')},"
                         f"{coords}")
    return "\n".join(lines) + "\n"


def _recording_run(monkeypatch):
    """Patch the CLI's sampler so the test sees the trajectories it wrote."""
    seen = []
    real = cli.run_parallel_chains

    def run(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "run_parallel_chains", run)
    return seen


_BURG = ["--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05", "--x0", "1.0"]
_WRITER_CASES = {
    "p2-mixed-burn-thin": [
        "--entropy", "mixed:a=0,0.5", "--target", "gamma:a=5,5;b=1,1", "--h", "0.05",
        "--steps", "40", "--chains", "3", "--burn-in", "6", "--thin", "4", "--x0", "1.0",
    ],
    "harmonic": [
        "--entropy", "logit", "--target", "beta:a1=4,a2=4", "--schedule", "harmonic:a=0.3",
        "--steps", "30", "--chains", "3", "--x0", "0.5",
    ],
    "burg-burn-thin": [
        "--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
        "--steps", "50", "--chains", "3", "--burn-in", "10", "--thin", "5", "--x0", "0.5",
    ],
    # Chain and step numbers that gain a digit, burn-in and thin ranges,
    # many distinct step sizes with 0.0 at k = 0, and no record at all.
    "9-chains-steps-to-10": [*_BURG, "--steps", "10", "--chains", "9"],
    "10-chains-burn-in": [*_BURG, "--steps", "12", "--chains", "10", "--burn-in", "8"],
    "11-chains-steps-to-100": [*_BURG, "--steps", "100", "--chains", "11", "--burn-in", "97"],
    "99-chains-burn-thin": [*_BURG, "--steps", "104", "--chains", "99", "--burn-in", "90",
                            "--thin", "3"],
    "100-chains-thin": [*_BURG, "--steps", "100", "--chains", "100", "--burn-in", "1",
                        "--thin", "9"],
    "harmonic-thin": [
        "--entropy", "logit", "--target", "beta:a1=4,a2=4", "--schedule", "harmonic:a=0.3",
        "--steps", "120", "--chains", "3", "--thin", "7", "--x0", "0.5",
    ],
    "zero-records": [*_BURG, "--steps", "5", "--chains", "2", "--burn-in", "6"],
}


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_sample_csv_equals_per_value_loop(case, monkeypatch, tmp_path):
    seen = _recording_run(monkeypatch)
    out = tmp_path / "t.csv"
    assert run_cli(["sample", *_WRITER_CASES[case], "--seed", "5", "--out", str(out)]) == 0
    p = seen[0][0].points.shape[1]
    assert out.read_text() == _per_value_csv(seen[0], p)


def test_sample_csv_writer_holds_bytes_per_record(monkeypatch):
    # One chain of 200,000 records: the writer's own peak is its prefix table
    # (32 bytes a record here) and a block, not an object per record.
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 1)
    n = 200_000
    step_sizes = np.full(n, 0.05)
    step_sizes[0] = 0.0
    trace = Trace(np.linspace(0.5, 2.0, n).reshape(1, n, 1), np.arange(n), step_sizes,
                  np.zeros(1, dtype=np.int64))
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            cli._write_trace_csv(fh, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 10 << 20


def test_sample_csv_to_stdout(monkeypatch, capsys):
    seen = _recording_run(monkeypatch)
    assert run_cli(["sample", *_WRITER_CASES["p2-mixed-burn-thin"], "--out", "-"]) == 0
    assert capsys.readouterr().out == _per_value_csv(seen[0], 2)


def test_sample_csv_blocks_cross_row_limit(monkeypatch, tmp_path):
    seen = _recording_run(monkeypatch)
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    out = tmp_path / "t.csv"
    code = run_cli(["sample", *_WRITER_CASES["harmonic"], "--steps", "24", "--out", str(out)])
    assert code == 0
    assert len(seen[0][0].steps) == 25  # blocks of 7, 7, 7 and 4 rows per chain
    assert out.read_text() == _per_value_csv(seen[0], 1)


@pytest.mark.parametrize("n_recorded", [0, 5])
def test_sample_csv_writer_on_extreme_values(n_recorded, monkeypatch):
    # Values the sampler never records, in blocks that split each chain.
    monkeypatch.setattr(cli, "_CSV_ROWS", 2)
    extremes = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, -1e308,
                0.1, -2.5]
    points = np.resize(extremes, (2, 5, 3))[:, :n_recorded]
    trace = Trace(points, np.arange(n_recorded) * 3, np.full(n_recorded, 0.05),
                  np.zeros(2, dtype=np.int64))
    fh = io.StringIO()
    cli._write_trace_csv(fh, trace)
    assert fh.getvalue() == _per_value_csv(trace, 3)
    if n_recorded == 0:
        assert fh.getvalue() == "chain,step,h,x_1,x_2,x_3\n"


def test_sample_csv_formats_each_step_size_bit_pattern():
    # The writer formats each distinct step size once.  Its memo keys on the
    # bits: a float key would write -0.0 as 0, since -0.0 == 0.0.
    step_sizes = np.array([0.0, 0.05, -0.0, 0.05, np.nan, 0.0, -0.0, np.nan, 0.1, -np.nan])
    n = len(step_sizes)
    trace = Trace(np.linspace(0.5, 2.0, 4 * n).reshape(2, n, 2), np.arange(n) * 2, step_sizes,
                  np.zeros(2, dtype=np.int64))
    fh = io.StringIO()
    cli._write_trace_csv(fh, trace)
    assert fh.getvalue() == _per_value_csv(trace, 2)
    assert fh.getvalue().count(",-0,") == 4


def test_percent_g_matches_format():
    rng = np.random.default_rng(0)
    values = [struct.unpack("<d", rng.bytes(8))[0] for _ in range(20_000)]
    values += list(rng.standard_normal(2_000) * 10.0 ** rng.integers(-300, 300, 2_000))
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1e-308, -1e-308, float("inf"), float("-inf"), float("nan")]
    assert [v for v in values if "%.17g" % v != format(v, ".17g")] == []


def _fast_path_edges():
    """Values at the edges of _format_17g's integer path, with their negatives."""
    rng = np.random.default_rng(1)
    decades = 10.0 ** np.arange(-6, 18)
    values = [decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)]
    # Odd multiples of 2**(X - 17) lie halfway between two 17-digit decimals
    # of exponent X; below 2**53 / 2**(17 - X) they are exact doubles.
    for X in (14, 15):
        scale = 2 ** (17 - X)
        values.append((rng.integers(10**X * scale, min(10 ** (X + 1) * scale, 2**53), 2_000)
                       | 1) / float(scale))
    values += [np.arange(-3_000, 3_000) / 1024, np.arange(-3_000, 3_000) / 10]
    values = np.concatenate(values)
    return np.concatenate([values, -values])


def _cell_text(words):
    """The text of each _format_17g cell: its bytes without the NULs."""
    cells = np.ascontiguousarray(words.T).view(np.uint8)
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


def test_format_17g_matches_percent_g():
    # test_percent_g_matches_format's values, the fast-path edges, and every
    # value the fast path leaves to "%.17g": zeros, subnormals, inf and nan.
    rng = np.random.default_rng(0)
    values = [struct.unpack("<d", rng.bytes(8))[0] for _ in range(20_000)]
    values += list(rng.standard_normal(2_000) * 10.0 ** rng.integers(-300, 300, 2_000))
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1e-308, -1e-308, float("inf"), float("-inf"), float("nan")]
    values = np.concatenate([values, _fast_path_edges(), [np.nextafter(1e-4, 0), 2.0**51, 2.0**53]])
    text = _cell_text(cli._format_17g(values))
    assert [(v, t) for v, t in zip(values.tolist(), text) if t != "%.17g" % v] == []


@pytest.mark.parametrize("rows", [1, 4, 9, 23, 1000])
def test_sample_csv_writer_across_chain_boundaries(rows, monkeypatch):
    # Blocks of 1 to 23 rows start and end inside 9-record chains and span
    # several of them; 1000 holds the whole trace.  A block of 6 coordinates
    # holds _CSV_ROWS // 6 rows, and at least one.  Negative, tiny (< 1e-4)
    # and huge values sit next to a sample of the fast-path edges.
    monkeypatch.setattr(cli, "_CSV_ROWS", 6 * rows if rows > 1 else 5)
    values = np.concatenate([[-1e-5, 3e-9, -2.5e-300, 1e200, -7e16, -0.0],
                             _fast_path_edges()[::102]])
    points = np.resize(values, (6, 9, 6))
    steps = np.arange(9) * 3 + 2
    step_sizes = np.array([0.0, 0.1, 0.05, 0.05, 0.025, 1e-5, 0.05, 0.1, 2.0])
    trace = Trace(points, steps, step_sizes, np.zeros(6, dtype=np.int64))
    fh = io.StringIO()
    writes = []
    fh.write = lambda text: writes.append(text) or io.StringIO.write(fh, text)
    cli._write_trace_csv(fh, trace)
    assert fh.getvalue() == _per_value_csv(trace, 6)
    assert len(writes) == 1 + -(-54 // rows)  # the header, then one write per block


def test_sample_csv_digest_is_pinned(capsys):
    # sha256 of this run's CSV as written by the per-value loop.
    args = ["sample", *_WRITER_CASES["burg-burn-thin"], "--seed", "11", "--out", "-"]
    assert run_cli(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "389f129f842b09bae252db45f161204ccbb03a3d53dbd0a7f477191cac1fe28d"


@pytest.fixture
def no_child_left():
    """A 10 s limit on the test, and no child process left after it."""

    def too_slow(signum, frame):
        raise TimeoutError("the writer took over 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("out", ["file", "stdout"])
def test_writer_workers_give_the_same_bytes_at_every_process_count(out, no_child_left,
                                                                   monkeypatch, tmp_path,
                                                                   capsys):
    # Blocks of 2 rows split the 31-record chains; 47 blocks pay for up to 2 workers.
    seen = _recording_run(monkeypatch)
    monkeypatch.setattr(cli, "_CSV_ROWS", 2)
    forks = _counting_forks(monkeypatch)
    texts = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda cpus=cpus: cpus)
        path = tmp_path / f"{cpus}.csv" if out == "file" else "-"
        assert run_cli(["sample", *_WRITER_CASES["harmonic"], "--out", str(path)]) == 0
        texts.append(path.read_text() if out == "file" else capsys.readouterr().out)
        assert len(forks) == cpus * (cpus - 1) // 2
    assert texts == [_per_value_csv(seen[0], 1)] * 3


@pytest.mark.parametrize("shape, n_forks", [((256, 21, 2), 0), ((16, 4096, 1), 1)],
                         ids=["mixed-3-blocks", "16-blocks"])
def test_writer_workers_fork_only_above_the_floor(shape, n_forks, no_child_left, monkeypatch):
    # The mixed workload's trace is 3 blocks of 4096 values; 16 blocks pay for one worker.
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 3)
    forks = _counting_forks(monkeypatch)
    n_chains, n_records, p = shape
    points = np.random.default_rng(0).gamma(5.0, size=shape)
    trace = Trace(points, np.arange(n_records), np.full(n_records, 0.05),
                  np.zeros(n_chains, dtype=np.int64))
    fh = io.StringIO()
    cli._write_trace_csv(fh, trace)
    assert len(forks) == n_forks
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 1)
    serial = io.StringIO()
    cli._write_trace_csv(serial, trace)
    assert fh.getvalue() == serial.getvalue()


def _small_blocks_trace(monkeypatch, cpus):
    """A 48-block trace of 2-row blocks that split its 8-record chains, on ``cpus`` CPUs."""
    monkeypatch.setattr(cli, "_CSV_ROWS", 2)
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: cpus)
    points = np.linspace(0.1, 9.6, 96).reshape(12, 8, 1)
    return Trace(points, np.arange(8) * 2, np.full(8, 0.05), np.zeros(12, dtype=np.int64))


def test_writer_worker_that_dies_costs_time_not_output(no_child_left, monkeypatch):
    trace = _small_blocks_trace(monkeypatch, 3)
    parent, formatted, real = os.getpid(), [], cli._format_17g

    def format_then_die(values):
        if os.getpid() != parent and formatted:
            os._exit(0)  # a worker ends after its first block
        formatted.append(None)
        return real(values)

    monkeypatch.setattr(cli, "_format_17g", format_then_die)
    fh = io.StringIO()
    cli._write_trace_csv(fh, trace)
    assert fh.getvalue() == _per_value_csv(trace, 1)
    assert len(formatted) == 48 - 2  # each worker formatted one block


def test_writer_worker_outlives_no_failed_write(no_child_left, monkeypatch):
    trace = _small_blocks_trace(monkeypatch, 3)

    class Full(io.StringIO):
        def write(self, text):
            if self.tell() > 100:
                raise OSError(28, "No space left on device")
            return super().write(text)

    with pytest.raises(OSError, match="No space"):
        cli._write_trace_csv(Full(), trace)


def test_text_buffered_before_forking_writer_workers_is_written_once(no_child_left, monkeypatch,
                                                                     capfd):
    trace = _small_blocks_trace(monkeypatch, 2)
    real = cli._format_17g

    def format_and_say(values):
        print("block", flush=True)
        return real(values)

    monkeypatch.setattr(cli, "_format_17g", format_and_say)
    # pytest's own sys.stdout writes through; this one keeps text in its buffer.
    with io.TextIOWrapper(open(os.dup(1), "wb")) as out:
        monkeypatch.setattr(sys, "stdout", out)
        print("before the fork")
        cli._write_trace_csv(io.StringIO(), trace)
    lines = capfd.readouterr().out.splitlines()
    assert lines == ["before the fork"] + ["block"] * 48


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("call", [1, 2], ids=["first-fork", "second-fork"])
def test_writer_worker_that_fails_to_start_costs_time_not_output(call, no_child_left, monkeypatch,
                                                                 tmp_path, fork_fails_at):
    # 47 blocks pay for 2 workers on 3 CPUs; one of the two forks fails.
    monkeypatch.setattr(cli, "_CSV_ROWS", 2)
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 3)
    argv = ["sample", *_WRITER_CASES["harmonic"], "--out"]
    assert run_cli([*argv, str(tmp_path / "forked.csv")]) == 0
    fds = len(os.listdir("/proc/self/fd"))
    calls = fork_fails_at(call)
    assert run_cli([*argv, str(tmp_path / "t.csv")]) == 0
    assert len(calls) == 2
    assert len(os.listdir("/proc/self/fd")) == fds
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


def test_writer_workers_without_fork_give_the_forked_bytes(no_child_left, monkeypatch, tmp_path):
    # 47 blocks pay for one worker on 2 CPUs; without os.fork this process formats them all.
    monkeypatch.setattr(cli, "_CSV_ROWS", 2)
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 2)
    forks = _counting_forks(monkeypatch)
    argv = ["sample", *_WRITER_CASES["harmonic"], "--out"]
    assert run_cli([*argv, str(tmp_path / "forked.csv")]) == 0
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert run_cli([*argv, str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


_NO_CHILD_LEFT = """import os, sys
from hrlmc import cli, workers
cli._CSV_ROWS = 64
workers.usable_cpus = lambda: 2
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


def test_writer_workers_end_on_a_broken_stdout_pipe(tmp_path):
    # About 400 KB of CSV in 125 blocks: far more than the pipe holds once
    # the reader has gone.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["sample", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
            "--steps", "1999", "--chains", "4", "--out", "-"]
    proc = subprocess.Popen([sys.executable, "-c", _NO_CHILD_LEFT, *argv], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"chain,step,h,x_1\n"
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert stderr == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    _WRITER_CASES["burg-burn-thin"],
    ["--entropy", "burg", "--target", "gamma:a=5,b=1", "--pairs", "5"],
], ids=["sample", "check"])
def test_output_to_a_full_device_is_invalid_input(argv, capsys):
    command = "check" if "--pairs" in argv else "sample"
    assert run_cli([command, *argv, "--out", "/dev/full"]) == 1
    stderr = capsys.readouterr().err
    assert stderr == "error: cannot write /dev/full: No space left on device\n"


_SAMPLE = ["sample", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--steps", "5"]
_CONFIG = ("entropy = burg\ntarget = gamma:a=5;b=1\nschedule = constant:h=0.2\n"
           "steps = 20\nchains = 16\ncheckpoints = 10,20\nplateau_window = 2\n")


_UNPARSED = "error: cannot parse"
_BOUND = ["bound", "--p", "1"]
_BAD_W0 = "error: w0 must be a finite non-negative distance, got "


@pytest.mark.parametrize("argv, config, err", [
    (_SAMPLE + ["--schedule", "constant:h=abc"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--x0", "abc"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--entropy", "mixed:a=x"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--target", "gamma:a=q,b=1"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--entropy", "euclidean", "--target", "gaussian:A=diag(1,x)"],
     None, _UNPARSED),
    (["experiment"], _CONFIG.replace("steps = 20", "steps = abc"), _UNPARSED),
    (["sweep", "--dims", "1,x"], _CONFIG, _UNPARSED),
    (_SAMPLE + ["--h", "inf", "--entropy", "mixed:a=0.3"], None,
     "error: constant schedule needs a finite h > 0"),
    (_SAMPLE + ["--schedule", "harmonic:a=inf"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--x0", "nan"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--target", "gamma:a=inf,b=1"], None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--entropy", "euclidean", "--target", "gaussian:A=diag(1,inf)"],
     None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--entropy", "euclidean", "--target", "gaussian:A=inf"],
     None, _UNPARSED),
    (_SAMPLE + ["--h", "0.05", "--entropy", "euclidean", "--target", "gaussian:A=diag()"],
     None, _UNPARSED),
    (_BOUND + ["--h", "nan"], None, "error: step size h must be finite, got nan"),
    (_BOUND + ["--h", "inf"], None, "error: step size h must be finite, got inf"),
    (_BOUND + ["--h", "0.05", "--eps", "nan"], None, "error: eps must be finite, got nan"),
    (_BOUND + ["--h", "0.05", "--eps", "inf"], None, "error: eps must be finite, got inf"),
    (_BOUND + ["--h", "0.05", "--w0", "nan"], None, _BAD_W0),
    (_BOUND + ["--h", "0.05", "--w0", "inf"], None, _BAD_W0),
    (_BOUND + ["--h", "0.05", "--w0", "-1"], None, _BAD_W0),
], ids=["schedule", "x0", "mixed-weights", "target-list", "gaussian-diag", "config-int",
        "sweep-dims", "h-inf", "harmonic-inf", "x0-nan", "gamma-inf", "gaussian-diag-inf",
        "gaussian-scalar-inf", "gaussian-diag-empty", "bound-h-nan", "bound-h-inf",
        "bound-eps-nan", "bound-eps-inf", "bound-w0-nan", "bound-w0-inf", "bound-w0-negative"])
def test_malformed_number_is_invalid_input(argv, config, err, tmp_path, capsys):
    _assert_invalid_input(argv, config, err, tmp_path, capsys)


def _assert_invalid_input(argv, config, err, tmp_path, capsys):
    """``argv``, given its config file or a saved report, exits 1 and writes nothing."""
    if config is not None:
        path = tmp_path / "exp.ini"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    if argv[0] == "bound":
        report = tmp_path / "report.json"
        assert run_cli(["check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
                        "--pairs", "5", "--out", str(report)]) == 0
        capsys.readouterr()
        argv = [*argv, "--report", str(report)]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(err)
    assert not (tmp_path / "out").exists()


def test_x0_list_follows_the_config_rule(capsys):
    # An empty token is skipped on the command line as in a config file.
    assert cli.ExperimentConfig.from_text(_CONFIG + "x0 = 1,\n").x0 == (1.0,)
    outputs = []
    for x0 in ("1,", "1"):
        assert run_cli(_SAMPLE + ["--h", "0.05", "--x0", x0, "--out", "-"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


_BAD_X0 = "error: x0 must have shape (1,), ("
_CONFIG_0 = _CONFIG.replace("checkpoints = 10,20", "checkpoints = 0,10,20")


@pytest.mark.parametrize("argv, config, err", [
    (["experiment"], _CONFIG_0 + "reference_seeds = 0\n",
     "error: reference_seeds must be at least 1, got 0"),
    (["experiment"], _CONFIG_0 + "assumption_pairs = 0\n",
     "error: assumption_pairs must be at least 1, got 0"),
    (["sweep", "--dims", "1"], _CONFIG.replace("plateau_window = 2", "plateau_window = 0"),
     "error: plateau_window must be at least 1, got 0"),
    (["sweep", "--dims", "1"], _CONFIG.replace("plateau_window = 2", "plateau_window = -1"),
     "error: plateau_window must be at least 1, got -1"),
    (["sweep"], _CONFIG + "dims = 0\n", "error: sweep dimensions must be at least 1, got 0"),
    (["sweep", "--dims", "1,-2"], _CONFIG, "error: sweep dimensions must be at least 1, got -2"),
    (["check", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--pairs", "0"], None,
     "error: need at least one pair, got 0"),
    (_SAMPLE + ["--h", "0.05", "--target", "gamma:a=5,5;b=1,1", "--x0", "1,2,3"], None, _BAD_X0),
    (_SAMPLE + ["--h", "0.05", "--x0", "1,2"], None, _BAD_X0),
    (["experiment"], _CONFIG_0 + "x0 = 0.2,0.3,0.4\n", _BAD_X0),
    (["sweep", "--dims", "2"], _CONFIG + "x0 = 0.2,0.3,0.4\n", _BAD_X0),
    (["sweep", "--dims", "1"], _CONFIG.replace("plateau_window = 2", "plateau_window = 5"),
     "error: plateau_window must be at most the 2 checkpoint(s), got 5"),
    (["bound", "--h", "0.05", "--p", "-3"], None, "error: dimension p must be at least 1, got -3"),
    (["bound", "--h", "0.05", "--p", "0"], None, "error: dimension p must be at least 1, got 0"),
    (["bound", "--h", "0.05", "--p", "0", "--eps", "0.01"], None,
     "error: dimension p must be at least 1, got 0"),
    (_SAMPLE + ["--h", "0.05", "--thin", "0"], None, "error: --thin must be at least 1, got 0"),
    (_SAMPLE + ["--h", "0.05", "--thin", "-2"], None, "error: --thin must be at least 1, got -2"),
    (_SAMPLE + ["--h", "0.05", "--burn-in", "-1"], None,
     "error: --burn-in must be at least 0, got -1"),
    (_SAMPLE + ["--h", "0.05", "--steps", "-1"], None,
     "error: --steps must be at least 0, got -1"),
], ids=["reference-seeds-0", "assumption-pairs-0", "plateau-window-0", "plateau-window-negative",
        "config-dims-0", "sweep-dims-negative", "check-pairs-0", "sample-x0-3-of-2",
        "sample-x0-2-of-1", "experiment-x0-3-of-1", "sweep-x0-3-of-2",
        "plateau-window-above-checkpoints", "bound-p-negative", "bound-p-0", "bound-p-0-eps",
        "sample-thin-0", "sample-thin-negative", "sample-burn-in-negative",
        "sample-steps-negative"])
def test_out_of_range_input_is_invalid_input(argv, config, err, tmp_path, capsys):
    _assert_invalid_input(argv, config, err, tmp_path, capsys)


@pytest.mark.parametrize("argv, err", [
    (_SAMPLE + ["--h", "abc"], "argument --h: invalid float value: 'abc'"),
    (_SAMPLE + ["--h", "0.05", "--chains", "x"], "argument --chains: invalid int value: 'x'"),
    (_SAMPLE[:-2] + ["--h", "0.05"], "the following arguments are required: --steps"),
    (_SAMPLE + ["--h", "0.05", "--schedule", "harmonic:a=0.3"],
     "argument --schedule: not allowed with argument --h"),
    (_SAMPLE, "one of the arguments --h --schedule is required"),
], ids=["h", "chains", "missing-steps", "both-h-and-schedule", "neither-h-nor-schedule"])
def test_usage_error_is_invalid_input(argv, err, tmp_path, capsys):
    # Exit 2 is the assumption gate's code, so argparse's usage errors exit 1.
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: hrlmc sample")
    assert f"hrlmc sample: error: {err}" in stderr
    assert not (tmp_path / "out.csv").exists()


_NEGATIVE_SEED = "error: a seed must be a non-negative integer"


@pytest.mark.parametrize("argv, config", [
    (_SAMPLE + ["--h", "0.05", "--seed", "-1"], None),
    (["check", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--seed", "-3"], None),
    (["distance", "--entropy", "burg", "--method", "sliced", "--seed", "-1"], None),
    (["experiment"], _CONFIG.replace("steps = 20", "steps = 20\nbase_seed = -2")),
], ids=["sample", "check", "distance-sliced", "experiment-base-seed"])
def test_negative_seed_is_invalid_input(argv, config, tmp_path, capsys):
    if argv[0] == "distance":
        for name in ("a", "b"):
            np.savetxt(tmp_path / f"{name}.csv", np.arange(1.0, 9.0).reshape(4, 2),
                       delimiter=",")
        argv = [*argv, "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]
    if config is not None:
        path = tmp_path / "exp.ini"
        path.write_text(config.replace("checkpoints = 10,20", "checkpoints = 0,10,20"))
        argv = [*argv, "--config", str(path)]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(_NEGATIVE_SEED)
    assert not (tmp_path / "out").exists()


_CLOUD = ["distance", "--entropy", "burg"]


@pytest.mark.parametrize("argv, files, err", [
    (_CLOUD + ["--a", "{d}/missing.csv", "--b", "{d}/b.csv"], {"b.csv": "1\n2\n"},
     "error: cannot read {d}/missing.csv: No such file or directory"),
    (_CLOUD + ["--a", "{d}/a.csv", "--b", "{d}/missing.csv"], {"a.csv": "1\n2\n"},
     "error: cannot read {d}/missing.csv: No such file or directory"),
    (_CLOUD + ["--a", "{d}/a.csv", "--b", "{d}/b.csv"], {"a.csv": "", "b.csv": "1\n2\n"},
     "error: {d}/a.csv holds no points"),
    (_CLOUD + ["--a", "{d}/a.csv", "--b", "{d}/b.csv"],
     {"a.csv": "# only a comment\n", "b.csv": "1\n2\n"}, "error: {d}/a.csv holds no points"),
    (_CLOUD + ["--a", "{d}/a.csv", "--b", "{d}/b.csv"], {"a.csv": "1\nx\n", "b.csv": "1\n2\n"},
     "error: {d}/a.csv: could not convert"),
    (["experiment", "--config", "{d}/missing.ini"], {},
     "error: cannot read {d}/missing.ini: No such file or directory"),
    (["sweep", "--config", "{d}/missing.ini"], {},
     "error: cannot read {d}/missing.ini: No such file or directory"),
    (["experiment", "--config", "{d}/exp.ini"], {"exp.ini": ""},
     "error: config is missing keys: ['chains', 'entropy', 'schedule', 'steps', 'target']"),
    (["sweep", "--config", "{d}/exp.ini"], {"exp.ini": "# nothing\n"},
     "error: config is missing keys: ['chains', 'entropy', 'schedule', 'steps', 'target']"),
    (["bound", "--report", "{d}/missing.json", "--h", "0.05", "--p", "1"], {},
     "error: cannot read {d}/missing.json: No such file or directory"),
    (["bound", "--report", "{d}/r.json", "--h", "0.05", "--p", "1"], {"r.json": ""},
     "error: {d}/r.json is not a JSON report"),
    (["bound", "--report", "{d}/r.json", "--h", "0.05", "--p", "1"], {"r.json": "{}"},
     "error: report has missing keys ['M', 'M_declared', "),
    (["bound", "--report", "{d}/r.json", "--h", "0.05", "--p", "1"], {"r.json": "[]"},
     "error: a report must be a JSON object"),
    (["bound", "--report", "{d}/r.json", "--h", "0.05", "--p", "1"],
     {"r.json": '{"colour": "blue"}'}, "error: report has missing keys ['M', "),
], ids=["distance-missing-a", "distance-missing-b", "distance-empty-cloud",
        "distance-comment-only-cloud", "distance-malformed-cloud", "experiment-missing-config",
        "sweep-missing-config", "experiment-empty-config", "sweep-empty-config",
        "bound-missing-report", "bound-empty-report", "bound-empty-object", "bound-list",
        "bound-unknown-key"])
def test_unreadable_or_empty_input_file_is_invalid_input(argv, files, err, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(d=tmp_path) for arg in argv]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(err.format(d=tmp_path)), stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sample", "distance", "check", "bound", "experiment",
                                     "sweep"])
def test_unwritable_output_is_invalid_input(command, tmp_path, capsys):
    # Each command refuses the path under a missing directory before its run.
    np.savetxt(tmp_path / "a.csv", np.arange(1.0, 5.0), delimiter=",")
    report = tmp_path / "report.json"
    assert run_cli(["check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
                    "--pairs", "5", "--out", str(report)]) == 0
    (tmp_path / "exp.ini").write_text(_CONFIG_0)
    argv = {
        "sample": _SAMPLE + ["--h", "0.05"],
        "distance": _CLOUD + ["--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "a.csv")],
        "check": ["check", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--pairs", "5"],
        "bound": ["bound", "--report", str(report), "--h", "0.05", "--p", "1"],
        "experiment": ["experiment", "--config", str(tmp_path / "exp.ini")],
        "sweep": ["sweep", "--config", str(tmp_path / "exp.ini"), "--dims", "1"],
    }[command]
    capsys.readouterr()
    out = tmp_path / "missing" / "out.csv"
    assert run_cli([*argv, "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: cannot write {out}: No such file or directory"), stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("command, run", [
    ("sample", "run_parallel_chains"),
    ("experiment", "run_convergence_experiment"),
    ("sweep", "run_dimension_sweep"),
])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_is_refused_before_the_run(command, run, where, monkeypatch,
                                                     tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError(f"{run} ran before the output path was checked")

    monkeypatch.setattr(cli, run, fail)
    (tmp_path / "exp.ini").write_text(_CONFIG)
    argv = {
        "sample": _SAMPLE + ["--h", "0.05"],
        "experiment": ["experiment", "--config", str(tmp_path / "exp.ini")],
        "sweep": ["sweep", "--config", str(tmp_path / "exp.ini"), "--dims", "1"],
    }[command]
    out = tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path
    assert run_cli([*argv, "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
    assert stderr.startswith(f"error: cannot write {out}: {reason}"), stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hrlmc sample")


def test_sample_oversized_record_fails_fast(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli([
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
        "--chains", "4096", "--steps", str(10**9), "--x0", "1.0", "--out", str(out),
    ])
    assert code == 1
    assert "GiB" in capsys.readouterr().err
    assert not out.exists()


def test_sample_steps_past_a_c_size_are_invalid_input(monkeypatch, capsys):
    # A range of 2**63 steps or more has no len(); its records are counted in
    # integers, so the allocation guard refuses it instead of an OverflowError.
    monkeypatch.setattr(errors, "_physical_memory", lambda: 64 << 30)
    code = run_cli(["sample", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
                    "--steps", str(10**20), "--out", "-"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: recording 1 chain(s) x 100000000000000000001 point(s)")
    assert captured.err.count("\n") == 1


def test_sample_counts_the_writer_prefix_table_before_any_chain_runs(monkeypatch, tmp_path,
                                                                     capsys):
    # 1000 records of one coordinate take 24 kB of points, steps and step
    # sizes, which fit in 40 kB, and 32 kB more of prefix table: 4 words of
    # "0," (2 bytes), "999," (4) and a step size of up to 24 characters.
    monkeypatch.setattr(errors, "_physical_memory", lambda: 40_000)
    monkeypatch.setattr(cli, "run_parallel_chains", lambda *a, **k: pytest.fail("chains ran"))
    out = tmp_path / "t.csv"
    code = run_cli(["sample", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
                    "--steps", "999", "--x0", "1.0", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: recording 1 chain(s) x 1000 point(s) x 1 coordinate(s) needs 0.0 GiB")
    assert not out.exists()


def test_check_oversized_pairs_fail_fast(tmp_path, capsys):
    # Refused by the allocation guard before any draw; numpy's own refusal of
    # a 2**50-pair array would read "Unable to allocate", not this remedy.
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = run_cli(["check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
                    "--pairs", str(2**50), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: drawing") and "GiB" in err and "use fewer pairs" in err
    assert not out.exists()


def test_distance_oversized_cloud_fails_fast(monkeypatch, tmp_path, capsys):
    # 4096 values take 32 KiB as float64; with 16 KiB of physical memory the
    # allocation guard refuses the cloud before np.loadtxt parses it.
    def loadtxt(*args, **kwargs):
        raise AssertionError("parsed the cloud before the refusal")

    a = tmp_path / "a.csv"
    a.write_text("1.0,2.0\n" * 2048)
    monkeypatch.setattr(errors, "_physical_memory", lambda: 16 << 10)
    monkeypatch.setattr(cli.np, "loadtxt", loadtxt)
    out = tmp_path / "d.json"
    start = time.perf_counter()
    code = run_cli(["distance", "--entropy", "burg", "--a", str(a), "--b", str(a),
                    "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: loading {a} needs") and "GiB" in err, err
    assert not out.exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.45 GiB for an array"),
     "error: Unable to allocate 7.45 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy-message", "bare"])
def test_memory_error_is_invalid_input(monkeypatch, tmp_path, capsys, error, message):
    def estimate_constants(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.analysis, "estimate_constants", estimate_constants)
    out = tmp_path / "report.json"
    assert run_cli(["check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_sample_gate_failure_exit_code(tmp_path):
    code = run_cli([
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--h", "0.5", "--steps", "5", "--x0", "1.0",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert not (tmp_path / "t.csv").exists()


def test_sample_override_gate(tmp_path):
    code = run_cli([
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--h", "0.5", "--steps", "5", "--x0", "1.0", "--override-gate",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 0


def test_sample_harmonic_schedule(tmp_path):
    out = tmp_path / "t.csv"
    code = run_cli([
        "sample", "--entropy", "logit", "--target", "beta:a1=4,a2=4",
        "--schedule", "harmonic:a=0.3", "--steps", "10", "--x0", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert float(rows[1].split(",")[2]) == 0.3  # h_1 = a
    assert float(rows[2].split(",")[2]) == 0.15  # h_2 = a / 2


def test_distance_command(tmp_path):
    rng = np.random.default_rng(0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    np.savetxt(a, rng.gamma(5.0, size=(64, 1)), delimiter=",")
    np.savetxt(b, rng.gamma(5.0, size=(64, 1)), delimiter=",")
    out = tmp_path / "d.json"
    code = run_cli([
        "distance", "--entropy", "burg", "--a", str(a), "--b", str(b),
        "--method", "auto", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "exact-1d"
    assert payload["value"] >= 0.0
    assert payload["n_points"] == 64


def test_check_then_bound_round_trip(tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli([
        "check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--pairs", "2000", "--seed", "4", "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["admissible"] is True
    assert report["kappa_tilde"] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    bound_path = tmp_path / "bound.json"
    code = run_cli([
        "bound", "--report", str(report_path), "--h", "0.05", "--p", "1",
        "--eps", "0.01", "--out", str(bound_path),
    ])
    assert code == 0
    bound = json.loads(bound_path.read_text())
    assert bound["rho"] == pytest.approx(np.sqrt(0.74), rel=1e-12)
    assert bound["step_window"] == pytest.approx(0.375, rel=1e-12)
    assert bound["k_eps"] >= 1
    assert "formulas" in bound


def test_bound_refuses_a_malformed_report(tmp_path, capsys):
    # A field of the wrong type, once a TypeError traceback, is one error line.
    report_path = tmp_path / "report.json"
    assert run_cli([
        "check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--pairs", "200", "--out", str(report_path),
    ]) == 0
    report_path.write_text(json.dumps({**json.loads(report_path.read_text()), "m": "abc"}))
    capsys.readouterr()
    code = run_cli([
        "bound", "--report", str(report_path), "--h", "0.05", "--p", "1",
        "--out", str(tmp_path / "b.json"),
    ])
    assert code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: report field 'm' must be a number")
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert not (tmp_path / "b.json").exists()


def test_bound_step_out_of_window_exit_code(tmp_path):
    report_path = tmp_path / "report.json"
    run_cli([
        "check", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--pairs", "500", "--seed", "4", "--out", str(report_path),
    ])
    code = run_cli([
        "bound", "--report", str(report_path), "--h", "0.4", "--p", "1",
        "--out", str(tmp_path / "b.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("entropy, target, code", [
    ("euclidean", "gamma:a=5,b=1", 0),  # sampled m < 0
    ("burg", "beta:a1=4,a2=4", 0),  # sampled m = -M
    ("logit", "gamma:a=5,b=1", 1),  # pi puts mass outside (0, 1): no R
], ids=["euclidean-gamma", "burg-beta", "logit-gamma"])
def test_check_ignores_constants_declared_for_another_entropy(entropy, target, code, tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli([
        "check", "--entropy", entropy, "--target", target, "--pairs", "2000",
        "--out", str(report_path),
    ]) == code
    if code:
        assert not report_path.exists()
        return
    report = json.loads(report_path.read_text())
    assert report["m_declared"] is None and report["m"] == report["m_sampled"]
    assert report["r_method"] == "quadrature"
    assert report["admissible"] is False
    code = run_cli([
        "bound", "--report", str(report_path), "--h", "0.05", "--p", "1",
        "--out", str(tmp_path / "b.json"),
    ])
    assert code == 2


def test_experiment_command_and_determinism(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "entropy = burg\n"
        "target = gamma:a=5;b=1\n"
        "schedule = constant:h=0.05\n"
        "steps = 30\n"
        "chains = 128\n"
        "x0 = 0.2\n"
        "checkpoints = 0,10,20,30\n"
        "base_seed = 2\n"
        "reference_seeds = 5\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "checkpoint_k,w2phi_median,w2phi_iqr,bound_value,floor"


def test_sweep_command(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "entropy = burg\n"
        "target = gamma:a=5;b=1\n"
        "schedule = constant:h=0.2\n"
        "steps = 60\n"
        "chains = 128\n"
        "x0 = 1.0\n"
        "checkpoints = 40,60\n"
        "base_seed = 2\n"
        "reference_seeds = 5\n"
        "plateau_window = 2\n"
    )
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--dims", "1,2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "p,plateau,raw_median,baseline_median"
    assert "# loglog_slope = " in text


def test_numerical_breakdown_exit_code(monkeypatch, tmp_path):
    from hrlmc.errors import NumericalBreakdown

    def explode(entropy, target, schedule, x0, n_steps, base_seed, n_chains, **kw):
        raise NumericalBreakdown("synthetic")

    monkeypatch.setattr(cli, "run_parallel_chains", explode)
    code = run_cli([
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1",
        "--h", "0.05", "--steps", "5", "--x0", "1.0",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 3
    assert not (tmp_path / "t.csv").exists()


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "entropy = burg\ntarget = gamma:a=5;b=1\nschedule = constant:h=0.2\n"
        "steps = 60\nchains = 128\nx0 = 1.0\ncheckpoints = 40,60\n"
        "base_seed = 2\nreference_seeds = 5\nplateau_window = 2\n"
    )
    blobs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert run_cli(["sweep", "--config", str(cfg), "--dims", "1,2", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
