"""The identity suite's child process: errors that cross the pipe, the helper's
failure paths, and reports that do not depend on whether the child was used."""

import inspect
import multiprocessing
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from phi4lab import cli, errors, verify
from phi4lab.errors import NoConvergence, Phi4LabError

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"
IDENTITY_CHECKS = (
    "check_ccr",
    "check_free_commutators",
    "check_ladder_bounds",
    "check_double_commutator",
    "check_weak_commutator",
)
ERRORS = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, Phi4LabError)),
    key=lambda cls: cls.__name__,
)


@pytest.fixture
def two_cpus():
    """The CPUs this process may use; the check process needs two of them."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if len(allowed) < 2:
        pytest.skip("the check process is forked only with two allowed CPUs")
    return allowed


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    exc = cls(5, 3) if cls is errors.BasisTooLarge else cls("[solver] eig_tol: not met")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_child_exception_is_raised_in_the_parent(two_cpus):
    def job():
        raise NoConvergence("lanczos: 3 restarts without convergence")

    with pytest.raises(NoConvergence, match="3 restarts without convergence"):
        with verify._beside(job) as result:
            assert len(multiprocessing.active_children()) == 1
            result()


def test_child_that_dies_before_answering_is_an_error(two_cpus):
    with pytest.raises(Phi4LabError, match="exited with code 3"):
        with verify._beside(lambda: os._exit(3)) as result:
            result()


def test_cli_exits_2_when_the_child_dies(two_cpus, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(verify, "check_ccr", lambda *args, **kwargs: os._exit(3))
    assert cli.main(["verify", "--config", str(REFERENCE), "--out", str(tmp_path)]) == 2
    assert "exited with code 3" in capsys.readouterr().err


def test_parent_exception_terminates_the_child(two_cpus):
    with pytest.raises(KeyError):
        with verify._beside(lambda: time.sleep(60)):
            (child,) = multiprocessing.active_children()
            raise KeyError("parent's own work failed")
    assert not child.is_alive()
    assert child.exitcode == -signal.SIGTERM


def test_only_the_child_is_held_off_one_cpu(two_cpus):
    with verify._beside(lambda: os.sched_getaffinity(0)) as result:
        assert os.sched_getaffinity(0) == two_cpus
        child_cpus = result()
    assert child_cpus < two_cpus and len(child_cpus) == len(two_cpus) - 1


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_the_child_runs_the_ccr_check_only(command, two_cpus, monkeypatch, tmp_path):
    """The small share `_beside`'s docstring asks for: 15-25% of the work on the benchmark models."""
    for name in IDENTITY_CHECKS:
        def recorded(*args, _name=name, _check=getattr(verify, name), **kwargs):
            (tmp_path / _name).write_text(str(os.getpid()))
            return _check(*args, **kwargs)

        monkeypatch.setattr(verify, name, recorded)
    cli.main([command, "--config", str(REFERENCE), "--out", str(tmp_path / "out")])
    assert [name for name in IDENTITY_CHECKS if (tmp_path / name).read_text() != str(os.getpid())] == ["check_ccr"]


@pytest.mark.parametrize("one_cpu", [False, True], ids=["forked", "one-cpu"])
def test_the_commands_own_error_wins_over_the_childs(one_cpu, monkeypatch, tmp_path, capsys):
    def fail(error):
        def check(*args, **kwargs):
            raise error
        return check

    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(verify, "check_ccr", fail(NoConvergence("ccr: the child's error")))
    monkeypatch.setattr(verify, "check_ladder_bounds", fail(NoConvergence("ladder: the command's error")))
    assert cli.main(["verify", "--config", str(REFERENCE), "--out", str(tmp_path)]) == 2
    assert "the command's error" in capsys.readouterr().err


@pytest.mark.parametrize("command, report", [("solve", "solve.json"), ("verify", "verify.json")])
def test_one_cpu_fallback_writes_the_same_report(command, report, two_cpus, monkeypatch, tmp_path, capsys):
    config = tmp_path / "reference10.ini"
    config.write_text(REFERENCE.read_text().replace("n_max = 8", "n_max = 10"))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    read_text = Path.read_text

    def no_thread_stat(path, *args, **kwargs):  # a kernel without /proc/thread-self, or no /proc
        if path == Path("/proc/thread-self/stat"):
            raise FileNotFoundError(2, "No such file or directory", str(path))
        return read_text(path, *args, **kwargs)

    runs = []
    for fallback in (None, "one-cpu", "no-proc"):
        monkeypatch.undo()
        if fallback == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if fallback == "no-proc":
            monkeypatch.setattr(Path, "read_text", no_thread_stat)
        code = cli.main(argv)
        runs.append((code, (tmp_path / "out" / report).read_bytes(), capsys.readouterr().out))
    assert runs[0][0] == 0
    assert runs[0] == runs[1] == runs[2]
