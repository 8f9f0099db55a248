"""``repro submit`` retry flags: validation, backoff, exit-code parity.

The retry knobs must never change *what* the daemon answers -- only how
stubbornly the client dials.  The parity test pins that: the same job
submitted with and without ``--retries/--retry-backoff`` exits with the
same code, which is also the direct pipeline's code.  And ``submit``
prints the very verdict block the direct ``lin`` command prints.
"""

import re

import pytest

from repro.cli import main
from repro.objects import get
from repro.service import DaemonConfig, VerificationDaemon
from repro.util.budget import EXIT_UNKNOWN, exit_code_for
from repro.verify import check_linearizability


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("submit-retry")
    daemon = VerificationDaemon(DaemonConfig(
        socket=str(root / "svc.sock"),
        state_dir=str(root / "state"),
        queue_size=4,
        job_workers=1,
    ))
    endpoint = daemon.start()
    yield endpoint
    daemon.shutdown()
    daemon.join(timeout=60.0)


def test_zero_retries_rejected(capsys):
    code = main([
        "submit", "lin", "newcas", "--socket", "/nonexistent.sock",
        "--retries", "0",
    ])
    assert code == EXIT_UNKNOWN
    assert "--retries" in capsys.readouterr().err


def test_malformed_retry_backoff_rejected(capsys):
    code = main([
        "submit", "lin", "newcas", "--socket", "/nonexistent.sock",
        "--retry-backoff", "fast:please",
    ])
    assert code == EXIT_UNKNOWN
    assert "--retry-backoff" in capsys.readouterr().err


def test_unreachable_daemon_is_unknown_after_retries(tmp_path, capsys):
    missing = str(tmp_path / "nobody.sock")
    code = main([
        "submit", "lin", "newcas", "--socket", missing,
        "--retries", "3", "--retry-backoff", "0.01:0.02",
        "--connect-timeout", "0.5",
    ])
    assert code == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert "cannot connect" in err
    assert "3 attempt(s)" in err  # --retries reached the dialer


def test_retry_flags_preserve_exit_code_parity(service):
    bench = get("newcas")
    direct = check_linearizability(
        bench.build(2), bench.spec(), num_threads=2, ops_per_thread=1,
        workload=bench.default_workload(),
    )
    expected = exit_code_for(direct.verdict)
    argv = ["submit", "lin", "newcas", "--socket", service,
            "--threads", "2", "--ops", "1"]
    plain = main(list(argv))
    retried = main(argv + ["--retries", "5", "--retry-backoff", "0.05:0.5"])
    assert plain == expected
    assert retried == expected


def _verdict_block(out):
    """The verdict lines of a lin run: no header, job/progress or note
    lines, and wall-clock times masked."""
    skip = ("==", "accepted as ", "progress: ", "note: ")
    return [
        re.sub(r"\(\d+\.\d+s\)", "(_s)", line)
        for line in out.splitlines() if not line.startswith(skip)
    ]


@pytest.mark.parametrize("argv", [
    ["newcas", "--ops", "1"],                              # TRUE
    ["hm_list_buggy", "--values", "1"],                    # FALSE
    ["newcas", "--ops", "1", "--method", "both"],
], ids=["true", "false", "both"])
def test_submit_prints_the_direct_verdict_block(service, capsys, argv):
    direct_code = main(["lin", *argv])
    direct = capsys.readouterr().out
    served_code = main(["submit", "lin", *argv, "--socket", service])
    served = capsys.readouterr().out
    assert served_code == direct_code
    assert _verdict_block(served) == _verdict_block(direct)
    assert len(_verdict_block(direct)) >= 2
