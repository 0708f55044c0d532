"""Fault-tolerant simulation service: supervised pool + recovery.

The robustness bar these tests hold the service to:

* a batch run under chaos -- every worker SIGKILLed mid-job, a
  corrupted shared-cache entry -- completes **bit-identical** to a
  serial no-fault run, within a bounded retry budget and bounded wall
  time (the pool never deadlocks);
* failure handling is policy-driven and visible: crashes resurrect
  from the last autosnapshot, native crashes degrade to the Python
  backend, compile faults degrade to the interpretive kind, repeated
  crashes quarantine with a structured JobFailure report;
* tenants are metered at admission; the HTTP front end maps it all
  onto status codes a dumb client can act on.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
from types import SimpleNamespace

import pytest

from repro.api import build_toolset, load_model
from repro.apps import build_fir
from repro.resilience import FaultInjector
from repro.service import (
    Client,
    JobSpec,
    ServicePolicy,
    Supervisor,
    TenantBudget,
)
from repro.service.chaos import (
    build_app_spec,
    compare_results,
    corrupt_cache_entries,
    kill_plan,
    run_chaos,
    run_reference,
)
from repro.service.server import ServiceServer
from repro.service.worker import classify_error, run_job
from repro.sim import create_simulator
from repro.simcc.cache import SimulationCache
from repro.support.errors import (
    BudgetExceededError,
    DecodeError,
    ReproError,
    ServiceError,
    SimulationTimeout,
)
from repro.tools.objfile import Program
from tests.conftest import REMOVED_TIER_KEY

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault seams reach workers via fork inheritance",
)

#: SIGKILL cycle for recoverable kill plans: past the third autosnapshot
#: (cadence 1000) and well before the FIR run's natural end (~6300).
KILL_CYCLE = 3_000
CADENCE = 1_000


def fast_policy(**overrides):
    """A ServicePolicy with test-speed backoff."""
    options = dict(max_retries=3, backoff_base=0.01, backoff_cap=0.2)
    options.update(overrides)
    return ServicePolicy(**options)


def stop_plan(cycle, attempts=(1,)):
    """A fault plan that SIGSTOPs the worker: alive, silent, wedged --
    the scenario only the heartbeat watchdog can catch."""
    entry = {
        "cycle": int(cycle),
        "action": "process_kill",
        "args": {"sig": int(signal.SIGSTOP)},
    }
    if attempts is not None:
        entry["attempts"] = [int(a) for a in attempts]
    return (entry,)


@pytest.fixture(scope="module")
def fir_app():
    return build_fir("c62x", taps=8, samples=48)


@pytest.fixture(scope="module")
def fir_tools(fir_app):
    return build_toolset(load_model(fir_app.model_name))


@pytest.fixture(scope="module")
def fir_spec(fir_app, fir_tools):
    return build_app_spec(fir_app, fir_tools, checkpoint_every=CADENCE)


@pytest.fixture(scope="module")
def fir_reference(fir_spec):
    return run_reference(fir_spec)


#: Spec values no simulator accepts (``module`` is a retired backend,
#: ``recompile`` and ``interpret`` are retired self-modify policies).
BAD_CHOICES = (
    ("kind", "unfoldd"),
    ("backend", "nativ"),
    ("backend", "module"),
    ("backend", "python"),
    ("on_self_modify", "recompil"),
    ("on_self_modify", "recompile"),
    ("on_self_modify", "interpret"),
)

#: Spec fields of the wrong type or out of range.  Unchecked, a bad
#: ``program`` killed the supervisor's pump thread when the failed job
#: was quarantined, a bad ``dumps``/``fault_plan`` raised out of the
#: HTTP handler, and a checkpoint interval below 1 wedged its worker.
BAD_FIELDS = (
    ("program", "nope"),
    ("dumps", 5),
    ("dumps", [["dmem", 0]]),
    ("dumps", [["dmem", -1, 4]]),
    ("fault_plan", [1]),
    ("model", 7),
    ("name", None),
    ("tenant", ["acme"]),
    ("max_cycles", True),
    ("max_cycles", 0),
    ("max_wall_seconds", -1),
    ("max_wall_seconds", "5"),
    ("checkpoint_every", 0),
    ("checkpoint_every", -5),
)


def respec(spec, **overrides):
    """A fresh JobSpec: ``spec`` with fields replaced."""
    data = spec.to_dict()
    data.update(overrides)
    return JobSpec.from_dict(data)


class TestJobSpec:
    def test_round_trip(self, fir_spec):
        clone = JobSpec.from_dict(fir_spec.to_dict())
        assert clone == fir_spec
        assert clone.dumps == fir_spec.dumps

    def test_requires_model_and_program(self):
        with pytest.raises(ReproError, match="model"):
            JobSpec.from_dict({"program": {}})

    def test_rejects_unknown_fields(self, fir_spec):
        data = fir_spec.to_dict()
        data["prioritee"] = 7
        with pytest.raises(ReproError, match="prioritee"):
            JobSpec.from_dict(data)

    def test_rejects_removed_tier_field(self, fir_spec):
        data = fir_spec.to_dict()
        data[REMOVED_TIER_KEY] = "off"
        with pytest.raises(ReproError, match="unknown job spec field"):
            JobSpec.from_dict(data)


class TestErrorClassification:
    def test_typed_errors_map_to_categories(self):
        assert classify_error(
            SimulationTimeout("t", budget="wall"), "run") == "timeout"
        assert classify_error(DecodeError("d"), "run") == "decode"
        assert classify_error(ReproError("x"), "load") == "compile"
        assert classify_error(ReproError("x"), "run") == "simulation"
        assert classify_error(ReproError("x"), "model") == "model"
        assert classify_error(OSError("x"), "model") == "model"
        assert classify_error(KeyError("x"), "run") == "internal"

    @pytest.mark.parametrize("kind", ["interpretive", "predecoded",
                                      "compiled", "unfolded_static"])
    def test_executed_undecodable_word_fails_as_simulation(
            self, tinydsp_tools, kind):
        # The trap fires when the word executes, as on interpretive --
        # not as a decode failure at load.
        program = tinydsp_tools.assembler.assemble_text(
            "nop\n.word 0xFFFF\nhalt\n", name="undecodable"
        )
        sent = []
        run_job(SimpleNamespace(send=sent.append), {"job": "j1", "spec": {
            "model": "tinydsp", "program": program.to_dict(), "kind": kind,
        }}, None)
        reply = sent[-1]
        assert (reply["type"], reply["phase"], reply["category"],
                reply["error"]) == ("error", "run", "simulation",
                                    "SimulationError")
        assert "no operation coding matches" in reply["message"]


class TestCleanJobs:
    def test_result_is_bit_identical_to_serial(self, fir_spec,
                                               fir_reference):
        with Supervisor(workers=2, policy=fast_policy()) as pool:
            job = pool.submit(fir_spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            assert status["attempt"] == 1
            compare_results(fir_reference, pool.result(job))

    def test_result_before_completion_is_typed(self, fir_spec):
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            job = pool.submit(fir_spec)
            with pytest.raises(ServiceError, match="no result"):
                pool.result(job)
            pool.wait(job, timeout=120)

    def test_unknown_job_is_typed(self):
        with Supervisor(workers=1) as pool:
            with pytest.raises(ServiceError, match="unknown job"):
                pool.status("job-999999")


class TestCrashRecovery:
    def test_sigkill_resumes_from_checkpoint(self, fir_app, fir_tools,
                                             fir_spec, fir_reference):
        spec = respec(fir_spec, fault_plan=kill_plan(KILL_CYCLE))
        with Supervisor(workers=2, policy=fast_policy()) as pool:
            job = pool.submit(spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            assert status["attempt"] == 2
            assert status["attempts"][0]["cause"] == "worker_crash"
            # the kill arrived SIGKILL-hard: exit code -9
            assert status["attempts"][0]["exitcode"] == -signal.SIGKILL
            compare_results(fir_reference, pool.result(job))
            counters = pool.metrics_snapshot()["counters"]
            assert counters["service.worker_deaths"] == 1
            assert counters["service.retries"] == 1

    def test_repeated_kill_quarantines_with_report(
        self, fir_spec, tmp_path
    ):
        # kill every attempt *below* the snapshot cadence: no
        # checkpoint ever lands, so no attempt escapes the kill
        spec = respec(
            fir_spec, checkpoint_every=50_000,
            fault_plan=kill_plan(500, attempts=None),
        )
        report_dir = str(tmp_path / "reports")
        policy = fast_policy(max_retries=2, report_dir=report_dir)
        with Supervisor(workers=1, policy=policy) as pool:
            job = pool.submit(spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "failed"
            assert status["attempt"] == 3  # max_retries + 1, no more
            assert status["cause"] == "worker_crash"
            with pytest.raises(ServiceError, match="quarantined"):
                pool.result(job)
            report = pool.failure(job)
        assert report["format"] == 1
        assert [a["cause"] for a in report["attempts"]] == \
            ["worker_crash"] * 3
        # the spec summary elides the program image
        assert report["spec"]["program"] == spec.program["name"]
        assert "words" not in json.dumps(report["spec"])
        on_disk = os.path.join(report_dir, "%s.json" % job)
        with open(on_disk, encoding="utf-8") as handle:
            assert json.load(handle) == report

    def test_pool_survives_mixed_batch(self, fir_spec, fir_reference):
        killed = respec(fir_spec, fault_plan=kill_plan(KILL_CYCLE))
        with Supervisor(workers=2, policy=fast_policy()) as pool:
            jobs = [
                pool.submit(killed), pool.submit(fir_spec),
                pool.submit(killed), pool.submit(fir_spec),
            ]
            pool.drain(timeout=180)
            for job in jobs:
                assert pool.status(job)["state"] == "completed"
                compare_results(fir_reference, pool.result(job),
                                label=job)


class TestHeartbeat:
    def test_wedged_worker_is_killed_and_job_resumes(
        self, fir_spec, fir_reference
    ):
        # SIGSTOP wedges the worker silently; only the heartbeat
        # watchdog can tell -- the process sentinel never fires
        spec = respec(fir_spec, fault_plan=stop_plan(KILL_CYCLE))
        policy = fast_policy(heartbeat_timeout=0.5)
        with Supervisor(workers=1, policy=policy) as pool:
            job = pool.submit(spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            assert status["attempt"] == 2
            assert status["attempts"][0]["cause"] == "heartbeat_timeout"
            compare_results(fir_reference, pool.result(job))


class TestWallTimeout:
    def test_wall_budget_attempts_resume_with_progress(self, fir_spec):
        self._assert_wall_attempts_progress(fir_spec)

    def test_wall_budget_holds_while_fault_pending(self, fir_spec):
        # a fault planned past the program's end stays pending for the
        # whole run; the wall budget must hold all the same
        self._assert_wall_attempts_progress(
            fir_spec, fault_plan=kill_plan(10 * KILL_CYCLE, attempts=None)
        )

    def _assert_wall_attempts_progress(self, fir_spec, **overrides):
        # a wall budget so tight every attempt times out after ~one
        # chunk; the retries must make monotonic progress from the
        # timeout checkpoints until the run completes
        spec = respec(fir_spec, max_wall_seconds=1e-3, **overrides)
        with Supervisor(workers=1,
                        policy=fast_policy(max_retries=10)) as pool:
            job = pool.submit(spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            assert status["attempt"] > 1
            causes = {a["cause"] for a in status["attempts"]}
            assert causes == {"wall_timeout"}
            cycles = [a["cycles"] for a in status["attempts"]]
            assert cycles == sorted(cycles)
            assert len(set(cycles)) == len(cycles), \
                "retries made no progress"

    def test_cycle_budget_is_final(self, fir_spec):
        spec = respec(fir_spec, max_cycles=100)
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            job = pool.submit(spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "failed"
            assert status["cause"] == "cycle_budget_exhausted"
            assert status["attempt"] == 1  # deterministic: no retries


class TestModelErrors:
    """A job whose model cannot be read or compiled fails identically on
    every attempt and every kind, so it is quarantined at once."""

    @pytest.mark.parametrize("text, error", [
        ("MODEL broken; RESOURCE {", "LisaSyntaxError"),
        (None, "FileNotFoundError"),
    ], ids=["syntax", "missing"])
    def test_unusable_model_is_quarantined_at_once(self, fir_spec, tmp_path,
                                                   text, error):
        path = tmp_path / "broken.lisa"
        if text is not None:
            path.write_text(text)
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            job = pool.submit(respec(fir_spec, model=str(path)))
            status = pool.wait(job, timeout=120)
        assert status["state"] == "failed"
        assert status["cause"] == "model_error"
        assert status["attempt"] == 1
        assert status["degradations"] == []
        assert status["kind"] == fir_spec.kind
        record, = status["attempts"]
        assert (record["category"], record["error"]) == ("model", error)


class TestDegradation:
    def test_native_crash_degrades_to_python_backend(
        self, fir_spec, fir_reference
    ):
        spec = respec(fir_spec, backend="native",
                      fault_plan=kill_plan(KILL_CYCLE))
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            job = pool.submit(spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            assert status["backend"] == "auto"
            action = status["degradations"][0]
            assert (action["action"], action["from"], action["to"]) == \
                ("backend", "native", "auto")
            families = pool.metrics_snapshot()["families"]
            assert families["service.degradations"][
                "native_to_python"] == 1
            compare_results(fir_reference, pool.result(job))

    @needs_fork
    def test_compile_fault_degrades_to_interpretive(
        self, fir_spec, fir_reference
    ):
        # workers forked inside the context inherit the failing
        # compiler; the degraded interpretive retry never compiles
        injector = FaultInjector()
        with injector.compile_fault():
            pool = Supervisor(workers=1, policy=fast_policy(),
                              start_method="fork")
        try:
            job = pool.submit(fir_spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            assert status["kind"] == "interpretive"
            record = status["attempts"][0]
            assert record["cause"] == "compile_fault"
            assert "injected compile fault" in record["message"]
            action = status["degradations"][0]
            assert (action["action"], action["from"], action["to"]) == \
                ("kind", "compiled", "interpretive")
            families = pool.metrics_snapshot()["families"]
            assert families["service.degradations"][
                "compile_to_interpretive"] == 1
            compare_results(fir_reference, pool.result(job))
        finally:
            pool.shutdown()

    @needs_fork
    def test_undegradable_compile_fault_quarantines(self, fir_spec):
        injector = FaultInjector()
        with injector.compile_fault():
            pool = Supervisor(
                workers=1,
                policy=fast_policy(degrade_compile=False),
                start_method="fork",
            )
        try:
            job = pool.submit(fir_spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "failed"
            assert status["cause"] == "compile_fault"
        finally:
            pool.shutdown()


class TestCacheCorruption:
    def test_corrupt_shared_entry_heals_and_completes(
        self, fir_app, fir_tools, fir_spec, fir_reference, tmp_path
    ):
        cache_dir = str(tmp_path / "simtab")
        warm = create_simulator(
            load_model(fir_app.model_name), "compiled",
            cache=SimulationCache(cache_dir),
        )
        warm.load_program(Program.from_dict(fir_spec.program))
        assert corrupt_cache_entries(cache_dir) == 1
        with Supervisor(workers=1, cache_dir=cache_dir,
                        policy=fast_policy()) as pool:
            job = pool.submit(fir_spec)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "completed"
            result = pool.result(job)
            assert result["cache_stats"]["corrupt_entries"] == 1
            assert result["cache_stats"]["stores"] == 1  # rebuilt
            compare_results(fir_reference, result)
            families = pool.metrics_snapshot()["families"]
            assert families["service.cache"]["corrupt_entries"] == 1


class TestCancel:
    def test_cancel_pending_job(self, fir_spec):
        wedged = respec(fir_spec, fault_plan=stop_plan(KILL_CYCLE))
        policy = fast_policy(heartbeat_timeout=30.0)
        with Supervisor(workers=1, policy=policy) as pool:
            blocker = pool.submit(wedged)
            queued = pool.submit(fir_spec)
            assert pool.cancel(queued)["state"] == "cancelled"
            assert pool.cancel(blocker)["state"] in (
                "running", "cancelled"
            )
            pool.drain(timeout=120)
            assert pool.status(blocker)["state"] == "cancelled"
            counters = pool.metrics_snapshot()["counters"]
            assert counters["service.jobs_cancelled"] == 2

    def test_cancel_running_job_kills_worker(self, fir_spec):
        wedged = respec(fir_spec, fault_plan=stop_plan(KILL_CYCLE))
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            job = pool.submit(wedged)
            for _ in range(100):
                pool.pump(0.02)
                if pool.status(job)["state"] == "running":
                    break
            pool.cancel(job)
            status = pool.wait(job, timeout=120)
            assert status["state"] == "cancelled"

    def test_cancel_terminal_job_is_a_no_op(self, fir_spec):
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            job = pool.submit(fir_spec)
            pool.wait(job, timeout=120)
            assert pool.cancel(job)["state"] == "completed"


class TestTenantBudgets:
    def test_per_job_cycle_cap(self, fir_spec):
        tenants = {"acme": TenantBudget(max_cycles_per_job=10_000)}
        with Supervisor(workers=1, tenants=tenants) as pool:
            with pytest.raises(BudgetExceededError) as excinfo:
                pool.submit(respec(fir_spec, tenant="acme",
                                   max_cycles=20_000))
            assert excinfo.value.budget == "max_cycles_per_job"
            assert excinfo.value.tenant == "acme"
            # within the cap is admitted
            job = pool.submit(respec(fir_spec, tenant="acme",
                                     max_cycles=10_000))
            assert pool.wait(job, timeout=120)["state"] == "completed"

    def test_active_job_cap(self, fir_spec):
        tenants = {"acme": TenantBudget(max_active_jobs=1)}
        with Supervisor(workers=1, tenants=tenants,
                        policy=fast_policy()) as pool:
            blocker = pool.submit(respec(fir_spec, tenant="acme"))
            with pytest.raises(BudgetExceededError) as excinfo:
                pool.submit(respec(fir_spec, tenant="acme"))
            assert excinfo.value.budget == "max_active_jobs"
            # other tenants are unaffected ...
            other = pool.submit(respec(fir_spec, tenant="zeta"))
            # ... and cancelling the blocker frees the slot
            pool.cancel(blocker)
            job = pool.submit(respec(fir_spec, tenant="acme"))
            pool.drain(timeout=120)
            assert pool.status(other)["state"] == "completed"
            assert pool.status(job)["state"] == "completed"

    def test_lifetime_cycle_budget(self, fir_spec):
        tenants = {"acme": TenantBudget(max_total_cycles=5_000)}
        with Supervisor(workers=1, tenants=tenants,
                        policy=fast_policy()) as pool:
            first = pool.submit(respec(fir_spec, tenant="acme"))
            assert pool.wait(first, timeout=120)["state"] == "completed"
            # the completed run (~6300 cycles) exhausted the lifetime
            with pytest.raises(BudgetExceededError) as excinfo:
                pool.submit(respec(fir_spec, tenant="acme"))
            assert excinfo.value.budget == "max_total_cycles"


class TestChaosBatch:
    """The acceptance scenario: a 50-job batch with every worker
    SIGKILLed mid-job and a corrupted shared-cache entry completes
    bit-identical to the serial no-fault run, inside the retry budget,
    inside a wall-clock bound (the pool never deadlocks)."""

    def test_chaos_batch_is_bit_identical(self, tmp_path):
        summary = run_chaos(
            workers=4, jobs=50,
            cache_dir=str(tmp_path / "simtab"),
            report_dir=str(tmp_path / "reports"),
            timeout=420.0,  # drain() raises if the pool wedges
        )
        assert summary["ok"], summary["mismatches"]
        assert summary["mismatches"] == []
        # every initial worker really died at least once
        assert summary["worker_deaths"] >= summary["workers"]
        # no job needed more than the retry budget (3 retries)
        assert summary["max_attempts"] <= 4
        # the corrupted shared-cache entry was quarantined and rebuilt
        assert summary["corrupted_cache_entries"] == 1
        assert summary["cache"]["corrupt_entries"] >= 1
        # nothing was quarantined, so no JobFailure reports landed
        reports = tmp_path / "reports"
        assert not (reports.is_dir() and os.listdir(str(reports)))


def _post_rejected(client, data):
    """POST ``data`` as a raw job spec, which the server must refuse;
    returns the status code and the error message."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        client.base_url + "/v1/jobs",
        data=json.dumps(data).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    body = json.loads(excinfo.value.read().decode("utf-8"))
    return excinfo.value.code, body["error"]


@pytest.fixture()
def http_service(fir_spec):
    supervisor = Supervisor(workers=2, policy=fast_policy())
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    server.start_pump()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = Client("http://127.0.0.1:%d" % server.server_address[1])
    try:
        yield client
    finally:
        server.close()
        thread.join(timeout=5.0)


class TestHttpService:
    def test_submit_wait_result_round_trip(self, http_service,
                                           fir_spec, fir_reference):
        client = http_service
        assert client.health()["ok"]
        job = client.submit(fir_spec)
        status = client.wait(job, timeout=120)
        assert status["state"] == "completed"
        compare_results(fir_reference, client.result(job), label=job)
        assert (job, "completed") in [tuple(j) for j in client.jobs()]

    def test_metrics_exposition(self, http_service, fir_spec):
        client = http_service
        client.wait(client.submit(fir_spec), timeout=120)
        text = client.metrics_text()
        assert "service_jobs_completed_total 1" in text
        assert text.endswith("# EOF\n")

    def test_unknown_job_is_404(self, http_service):
        with pytest.raises(ServiceError, match="unknown job"):
            http_service.status("job-424242")

    def test_result_before_completion_is_409(self, http_service,
                                             fir_spec):
        client = http_service
        job = client.submit(respec(
            fir_spec, fault_plan=stop_plan(KILL_CYCLE)))
        with pytest.raises(ServiceError, match="no result"):
            client.result(job)
        client.cancel(job)
        assert client.wait(job, timeout=120)["state"] == "cancelled"

    def test_budget_rejection_is_429(self, fir_spec):
        tenants = {"acme": TenantBudget(max_cycles_per_job=10)}
        supervisor = Supervisor(workers=1, tenants=tenants)
        server = ServiceServer(("127.0.0.1", 0), supervisor)
        server.start_pump()
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        client = Client(
            "http://127.0.0.1:%d" % server.server_address[1]
        )
        try:
            with pytest.raises(BudgetExceededError) as excinfo:
                client.submit(respec(fir_spec, tenant="acme"))
            assert excinfo.value.budget == "max_cycles_per_job"
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_bad_spec_is_rejected(self, http_service):
        with pytest.raises(ServiceError, match="model"):
            http_service.submit({"name": "incomplete"})

    def test_removed_tier_field_is_400(self, http_service, fir_spec):
        data = dict(fir_spec.to_dict())
        data[REMOVED_TIER_KEY] = "aggressive"
        code, error = _post_rejected(http_service, data)
        assert code == 400
        assert "unknown job spec field" in error
        assert http_service.jobs() == []

    def test_bad_choice_is_rejected_at_submit(self, fir_spec):
        # Inside a worker these would fail the table compile and the
        # job would "complete" degraded to the interpretive kind.
        with Supervisor(workers=1) as pool:
            for field, value in BAD_CHOICES:
                data = dict(fir_spec.to_dict(), **{field: value})
                with pytest.raises(ReproError, match=field):
                    pool.submit(data)
            assert pool.jobs() == []

    def test_bad_choice_is_400(self, http_service, fir_spec):
        for field, value in BAD_CHOICES:
            data = dict(fir_spec.to_dict(), **{field: value})
            code, error = _post_rejected(http_service, data)
            assert code == 400
            assert field in error
        assert http_service.jobs() == []

    def test_bad_field_is_rejected_at_submit(self, fir_spec,
                                             fir_reference):
        with Supervisor(workers=1, policy=fast_policy()) as pool:
            good = []
            for field, value in BAD_FIELDS:
                data = dict(fir_spec.to_dict(), **{field: value})
                with pytest.raises(ReproError, match=field):
                    pool.submit(data)
                good.append(pool.submit(fir_spec))
            assert [job for job, _ in pool.jobs()] == good
            for job in good:
                assert pool.wait(job, timeout=120)["state"] == "completed"
                compare_results(fir_reference, pool.result(job), label=job)

    def test_bad_field_is_400(self, http_service, fir_spec,
                              fir_reference):
        client = http_service
        good = []
        for field, value in BAD_FIELDS:
            data = dict(fir_spec.to_dict(), **{field: value})
            code, error = _post_rejected(client, data)
            assert code == 400
            assert field in error
            good.append(client.submit(fir_spec))
        assert [job for job, _ in client.jobs()] == good
        for job in good:
            assert client.wait(job, timeout=120)["state"] == "completed"
            compare_results(fir_reference, client.result(job), label=job)
