"""Tests for the command-line tools."""

import io

import pytest

from repro.tools.fdl import main as fdl_main
from repro.tools.fmtm import main as fmtm_main

SAGA = """
MODEL SAGA 'travel'
  STEP 'flight'
  STEP 'hotel'
END 'travel'
"""

FLEX = """
MODEL FLEXIBLE 'f'
  SUBTRANSACTION 'a' COMPENSATABLE
  SUBTRANSACTION 'p' PIVOT
  SUBTRANSACTION 'r' RETRIABLE
  PATH 'a' 'p'
  PATH 'a' 'r'
END 'f'
"""

CONTRACT = """
MODEL CONTRACT 'order'
  CONTEXT 'Amount' LONG
  STEP 'reserve'
  STEP 'insure' WHEN "Amount > 100"
END 'order'
"""


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="spec.fmtm"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_fmtm(*argv):
    out = io.StringIO()
    code = fmtm_main(list(argv), out=out)
    return code, out.getvalue()


def run_fdl(*argv):
    out = io.StringIO()
    code = fdl_main(list(argv), out=out)
    return code, out.getvalue()


class TestFmtmTool:
    def test_translate_saga(self, spec_file):
        code, output = run_fmtm(spec_file(SAGA))
        assert code == 0
        assert "Saga_travel" in output
        assert "build_template" in output

    def test_run_saga_success(self, spec_file):
        code, output = run_fmtm(spec_file(SAGA), "--run")
        assert code == 0
        assert "committed: True" in output
        assert "'flight': 1" in output

    def test_run_saga_with_abort(self, spec_file):
        code, output = run_fmtm(spec_file(SAGA), "--run", "--abort", "hotel")
        assert code == 0
        assert "committed: False" in output
        assert "compensated: ['flight']" in output

    def test_run_flexible_fallback(self, spec_file):
        code, output = run_fmtm(spec_file(FLEX), "--run", "--abort", "p")
        assert code == 0
        assert "committed: True" in output
        assert "committed_path: ['a', 'r']" in output

    def test_run_contract_with_input(self, spec_file):
        code, output = run_fmtm(
            spec_file(CONTRACT), "--run", "--input", "Amount=50"
        )
        assert code == 0
        assert "skipped: ['insure']" in output

    def test_fdl_out_written(self, spec_file, tmp_path):
        fdl_path = tmp_path / "out.fdl"
        code, output = run_fmtm(spec_file(SAGA), "--fdl-out", str(fdl_path))
        assert code == 0
        assert fdl_path.exists()
        assert "PROCESS 'Saga_travel'" in fdl_path.read_text()

    def test_missing_file_is_an_error(self):
        code, output = run_fmtm("/nonexistent/spec.fmtm")
        assert code == 1
        assert "error:" in output

    def test_bad_spec_is_an_error(self, spec_file):
        code, output = run_fmtm(spec_file("MODEL SAGA 'x'\n"))
        assert code == 1
        assert "error:" in output

    def test_bad_input_pair_is_an_error(self, spec_file):
        code, output = run_fmtm(
            spec_file(CONTRACT), "--run", "--input", "Amount"
        )
        assert code == 1
        assert "NAME=VALUE" in output

    def test_dag_saga_routes_to_parallel_translation(self, spec_file):
        text = """
        MODEL SAGA 'dag'
          STEP 'a'
          STEP 'b'
          STEP 'c'
          ORDER 'a' 'b'
          ORDER 'a' 'c'
        END 'dag'
        """
        code, output = run_fmtm(spec_file(text), "--run", "--abort", "b")
        assert code == 0
        assert "PSaga_dag" in output
        assert "committed: False" in output


class TestFdlTool:
    @pytest.fixture
    def fdl_file(self, spec_file, tmp_path):
        fdl_path = tmp_path / "doc.fdl"
        run_fmtm(spec_file(SAGA), "--fdl-out", str(fdl_path))
        return str(fdl_path)

    def test_check(self, fdl_file):
        code, output = run_fdl("check", fdl_file)
        assert code == 0
        assert "ok: 1 process(es)" in output

    def test_summary(self, fdl_file):
        code, output = run_fdl("summary", fdl_file)
        assert code == 0
        assert "PROCESS Saga_travel" in output
        assert "block" in output

    def test_roundtrip(self, fdl_file):
        code, output = run_fdl("roundtrip", fdl_file)
        assert code == 0
        assert "stable" in output

    def test_check_invalid_file(self, tmp_path):
        bad = tmp_path / "bad.fdl"
        bad.write_text("PROCESS 'x' END 'y'")
        code, output = run_fdl("check", str(bad))
        assert code == 1
        assert "error:" in output

    def test_missing_file(self):
        code, output = run_fdl("check", "/nonexistent.fdl")
        assert code == 1


class TestMonitorNetViews:
    """The monitor's NET and DLQ commands over a live broker and over
    a snapshot dump."""

    def test_net_view_from_live_broker_and_from_file(self, tmp_path, capsys):
        import json

        from repro.net import BusServerThread, SocketBus
        from repro.tools.monitor import main as monitor_main

        with BusServerThread(queue_capacity=2, name="test-broker") as broker:
            host, port = broker.address
            with SocketBus(host, port, name="seeder") as bus:
                bus.send("node:w", {"n": 1})
                assert monitor_main(["net", "%s:%d" % (host, port)]) == 0
                live = capsys.readouterr().out
                assert "BROKER test-broker" in live
                assert "seeder" in live and "node:w" in live
                assert "capacity 2" in live
                # the same render from a snapshot dump, broker gone
                path = tmp_path / "net.json"
                path.write_text(json.dumps(bus.snapshot()))
        assert monitor_main(["net", str(path)]) == 0
        assert "BROKER test-broker" in capsys.readouterr().out

    def test_dlq_inspect_and_drain(self, capsys):
        from repro.net import BusServerThread, SocketBus
        from repro.tools.monitor import main as monitor_main

        with BusServerThread(queue_capacity=1) as broker:
            host, port = broker.address
            target = "%s:%d" % (host, port)
            with SocketBus(host, port, name="seeder") as bus:
                bus.send("node:w", {"n": 1})
                try:
                    bus.send("node:w", {"n": 2})
                except Exception:
                    pass
                assert monitor_main(["dlq", target]) == 0
                shown = capsys.readouterr().out
                assert "DEAD LETTERS (1)" in shown
                assert "queue overflow" in shown
                assert (
                    monitor_main(
                        ["dlq", target, "--queue", "node:w", "--drain"]
                    )
                    == 0
                )
                assert "requeued 1" in capsys.readouterr().out
                assert bus.depth("node:w") == 2
                assert bus.dlq_entries() == []

    def test_flows_view_from_snapshot_dump(self, tmp_path, capsys):
        import json

        from repro.flow import install_flows, step, workflow
        from repro.tools.monitor import main as monitor_main
        from repro.wfms import Engine

        @step
        def double(x):
            return x * 2

        @workflow
        def doubler(flow, x):
            return double(double(x))

        engine = Engine()
        rt = install_flows(engine, [doubler], seed=11)
        rt.start("doubler", 21)
        engine.run()
        path = tmp_path / "flows.json"
        path.write_text(json.dumps(rt.snapshot()))
        assert monitor_main(["flows", str(path)]) == 0
        shown = capsys.readouterr().out
        assert "FLOWS (1 registered)" in shown
        assert "doubler" in shown
        # An uncrashed flow runs both steps live and replays none.
        assert "STEPS executed 2 (0 transactional, 0 failed)" in shown
        assert "replayed on resume 0" in shown

    def test_dlq_requires_live_target(self, capsys):
        from repro.tools.monitor import main as monitor_main

        assert monitor_main(["dlq", "not-a-target"]) == 2
        assert "HOST:PORT" in capsys.readouterr().out

    def test_net_bad_target_is_an_error(self, capsys):
        from repro.tools.monitor import main as monitor_main

        assert monitor_main(["net", "no/such/file"]) == 1
        assert "error" in capsys.readouterr().out
