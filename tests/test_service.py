"""Tests for ``repro.service`` — sharded campaigns, scheduling, spool, HTTP.

The load-bearing property is **shard invariance**: a campaign split into
any number of shards digests bit-identically to the unsharded run (RNG
stream positions included), which is what makes the content-addressed
shard cache and the fair-share scheduler pure optimisations.  The
SIGKILL test drives the real CLI in a subprocess and checks a killed,
restarted service converges to the uninterrupted reference digest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import calibration_batch
from repro.core.randomizer import RandomizationBlock
from repro.obs.http import CONTENT_TYPE, MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.parallel import TrialPool
from repro.resilience.checkpoint import CheckpointMismatch
from repro.service import (
    CampaignAggregate,
    CampaignSpec,
    Coordinator,
    HistogramSketch,
    MomentAccumulator,
    pending_jobs,
    plan_shards,
    run_campaign,
    run_shard,
    run_trial,
    run_worker,
    serve,
    submit_job,
)
from repro.service.transport import aggregate_state_digest
from repro.store import ContentStore

#: Small-but-nondegenerate campaign used throughout (7 trials so the
#: 7-shard split exercises one-trial shards).
SMALL = dict(
    scale=32, n_blocks=7, block_branches=300, repetitions=6, shards=1
)


def small_spec(**overrides) -> CampaignSpec:
    params = dict(SMALL)
    params.update(overrides)
    return CampaignSpec(**params)


def quiet(*args) -> None:
    pass


def run_claimed(coordinator: Coordinator, work) -> None:
    """Run one claimed shard and upload it, as a worker would."""
    spec = CampaignSpec.from_dict(work["spec"])
    state = run_shard(spec, work["lo"], work["hi"]).to_state()
    reply = coordinator.handle(
        "upload",
        {
            "campaign": work["campaign"],
            "shard": work["shard"],
            "lease_id": work["lease_id"],
            "worker": "test",
            "state": state,
            "digest": aggregate_state_digest(state),
        },
    )
    assert reply["status"] == "accepted"


def run_one_shard(coordinator: Coordinator) -> None:
    run_claimed(coordinator, coordinator.claim("test")["work"])


def drain(coordinator: Coordinator) -> None:
    """Drain through the in-process worker (single-host ``serve``)."""
    assert run_worker(coordinator, once=True, log=quiet) == 0


#: Presets x noise environments of the golden-digest matrix.
GOLDEN_PRESETS = (
    "skylake", "haswell", "sandy_bridge", "tage_like", "firestorm_like",
    "oryon_like",
)
GOLDEN_NOISES = ("isolated", "noisy", "quiesced", "silent")
#: Block sizes cycled through the matrix: one branch, fewer branches
#: than any preset's history, and odd sizes.
GOLDEN_SIZES = (1, 7, 300, 2001)

#: ``run_campaign(golden_spec(...)).digest()`` as computed when service
#: trials still generated and compiled every block.  Never regenerate
#: these from the code under test: they pin that the compile-free trial
#: path reproduces the compiled one, RNG positions included.
GOLDEN_DIGESTS = {
    "skylake/isolated": (
        "c86cebbf2be926b2d12a204b124c0260963e6df80c61debaed832f969c60ae63"
    ),
    "skylake/noisy": (
        "85b94fe9710ef6a404437a636859ccd174c76b8e1f1f44702b116f3ad2516c16"
    ),
    "skylake/quiesced": (
        "154aad72453f020908fb82d9eb85af929d6db89beae933e5159a2dd9b20171c9"
    ),
    "skylake/silent": (
        "e229e1c5a3dc11a3496938f43eb6b8fb38492bbd6192659a916df9e318b01cd3"
    ),
    "haswell/isolated": (
        "d0eebbc326715f17c02e0e96d946310a5cd709869fdf51a4993d6d0e84d56ef6"
    ),
    "haswell/noisy": (
        "9ac79667dc8406f59e806e9ed8c57824a2db910720997e7cd9a5560fa117592c"
    ),
    "haswell/quiesced": (
        "3b967e156080f70bc95f40dec542d6774b84d704a65c237e53a2b8ba9ae3d42d"
    ),
    "haswell/silent": (
        "dd26b328ca84294b83a93861d28eb71755837020309c2f6f786bbd68af7600ea"
    ),
    "sandy_bridge/isolated": (
        "25f986e2de98bac5be4ec1cc8f455c68c1e9fa5f8e9fc8439fc560557f7eabdd"
    ),
    "sandy_bridge/noisy": (
        "9ce6a714a74b9c6b211d209c1b38ced572b881c0909e93d5effb82eabfccae86"
    ),
    "sandy_bridge/quiesced": (
        "32635f78c3f90db0f9e078d715c6ecdeba665d35547a11720c35efe0e6bdca1d"
    ),
    "sandy_bridge/silent": (
        "6294a166c36ed6fd77a5a15434a65890012a2d03ab764c74109f48b579e6484f"
    ),
    "tage_like/isolated": (
        "d3a75f9e7ea1cd0f7359c5dd7c1281aa55a6bf0b63c0c93a92f8ce06594c5505"
    ),
    "tage_like/noisy": (
        "80ba6dabb958bc8eb7b6778ee42068bf6836db654749e77f0b8ec9576598f39e"
    ),
    "tage_like/quiesced": (
        "c6ba6e6cef6775724fd9669f8fce446fbfd8293d06e51ea631a624c1068faeed"
    ),
    "tage_like/silent": (
        "bdeffe8945ab19b67b6cf005f93753b2d4f774077091ea82cf0a1e21134fea3f"
    ),
    "firestorm_like/isolated": (
        "0e8545dcffb05a1bc403e5ffd0c905a3f055cf73b3b91fe48a3a21bf9805d378"
    ),
    "firestorm_like/noisy": (
        "4cbce217da3ba31612c2dec7455e99eb1cb929027defbd6c5c5d19127a72266c"
    ),
    "firestorm_like/quiesced": (
        "cbcf2a10b621794f3f4f5ef6023f0b05e53355f101b90ad67f04feb1269bc7a7"
    ),
    "firestorm_like/silent": (
        "646fab19c5d463aa1509bc9e549e79a6f6d72024808c3910c0192c36e03b17ce"
    ),
    "oryon_like/isolated": (
        "4ca6ee511c00baa04d6dc20dc0e37e021fdaa67a45dbe07e6b81501587d287c2"
    ),
    "oryon_like/noisy": (
        "65dfe214243624f574b73f39e3edd06cb92c55aad8162498d7bbb7a8f46f78a4"
    ),
    "oryon_like/quiesced": (
        "e48cfd61f8000ff00cb62af2c451dc1b7aaecf0534dc7003b39182cc81c39694"
    ),
    "oryon_like/silent": (
        "802380840b942a0669f17fbea44fd1b72b8327a7612965e83303d5b9ab808949"
    ),
}


def golden_spec(preset: str, noise: str) -> CampaignSpec:
    i = GOLDEN_PRESETS.index(preset)
    j = GOLDEN_NOISES.index(noise)
    cell = 4 * i + j
    return CampaignSpec(
        name=f"{preset}-{noise}",
        preset=preset,
        noise=noise,
        scale=16,
        seed=100 + cell,
        target_address=0x4200 + 0x111 * cell,
        n_blocks=3,
        block_branches=GOLDEN_SIZES[(i + j) % 4],
        repetitions=6,
        seed_start=10 * cell,
        shards=1,
    )


class TestGoldenDigests:
    """Campaign digests pinned across the six presets and four noise
    environments, and the guarantee that no service trial generates or
    compiles a block, or runs the per-trial batch engine."""

    @pytest.mark.parametrize("noise", GOLDEN_NOISES)
    @pytest.mark.parametrize("preset", GOLDEN_PRESETS)
    def test_digest_matrix(self, preset, noise):
        spec = golden_spec(preset, noise)
        assert run_campaign(spec).digest() == (
            GOLDEN_DIGESTS[f"{preset}/{noise}"]
        )

    def test_trials_never_generate_or_compile(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a service trial left the manycore path")

        monkeypatch.setattr(
            RandomizationBlock, "generate", staticmethod(forbidden)
        )
        monkeypatch.setattr(RandomizationBlock, "compile", forbidden)
        monkeypatch.setattr(calibration_batch, "batch_assess", forbidden)
        specs = [
            golden_spec(preset, noise)
            for preset in GOLDEN_PRESETS
            for noise in GOLDEN_NOISES
        ]
        root = tmp_path / "svc"
        for spec in specs:
            golden = GOLDEN_DIGESTS[f"{spec.preset}/{spec.noise}"]
            assert run_campaign(spec).digest() == golden
            submit_job(root, spec)
        assert serve(root, once=True, log=quiet) == 0
        for spec in specs:
            path = root / "results" / f"{spec.campaign_id()}.json"
            assert json.loads(path.read_text())["digest"] == (
                GOLDEN_DIGESTS[f"{spec.preset}/{spec.noise}"]
            )


class TestAccumulators:
    def test_moment_accumulator_is_exact(self):
        acc = MomentAccumulator()
        for v in (0.1, 0.2, 0.7):
            acc.add(v)
        # Sums are exact rationals of the float inputs, not float sums.
        expected = sum(Fraction(v) for v in (0.1, 0.2, 0.7))
        assert acc.total == expected
        assert acc.mean() == float(expected / 3)

    def test_moment_merge_equals_serial_fold(self):
        values = [i / 7 for i in range(20)]
        serial = MomentAccumulator()
        for v in values:
            serial.add(v)
        left, right = MomentAccumulator(), MomentAccumulator()
        for v in values[:11]:
            left.add(v)
        for v in values[11:]:
            right.add(v)
        left.merge(right)
        assert left.state_token() == serial.state_token()
        assert left.variance() == serial.variance()

    def test_moment_state_round_trip(self):
        acc = MomentAccumulator()
        acc.add(0.3)
        again = MomentAccumulator.from_state(acc.to_state())
        assert again.state_token() == acc.state_token()

    def test_histogram_merge_and_edge_mismatch(self):
        a, b = HistogramSketch(), HistogramSketch()
        a.add(0.84)  # last bucket <= 0.85: stability threshold resolves
        b.add(0.86)
        a.merge(b)
        assert sum(a.counts) == 2
        with pytest.raises(ValueError, match="different edges"):
            a.merge(HistogramSketch(edges=(0.5, 1.0)))

    def test_aggregate_state_round_trip_preserves_digest(self):
        spec = small_spec()
        agg = CampaignAggregate()
        for i in range(3):
            agg.add_trial(run_trial(spec, i))
        again = CampaignAggregate.from_state(agg.to_state())
        assert again.digest() == agg.digest()
        assert again.summary() == agg.summary()


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown preset"):
            CampaignSpec(preset="pentium")
        with pytest.raises(ValueError, match="unknown noise"):
            CampaignSpec(noise="cosmic")
        with pytest.raises(ValueError, match="shards"):
            CampaignSpec(shards=0)

    def test_scheduling_knobs_do_not_shape_content(self):
        base = small_spec()
        assert (
            base.with_shards(5).content_key() == base.content_key()
        )
        other_tenant = small_spec(tenant="acme")
        assert other_tenant.content_key() == base.content_key()
        # But the science does.
        assert small_spec(seed=8).content_key() != base.content_key()

    def test_json_round_trip(self):
        spec = small_spec(name="round trip!", tenant="acme")
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert "-" in spec.campaign_id()
        assert " " not in spec.campaign_id()

    def test_plan_shards(self):
        spec = small_spec(n_blocks=7)
        assert plan_shards(spec, 1) == [(0, 7)]
        shards = plan_shards(spec, 3)
        assert shards == [(0, 3), (3, 5), (5, 7)]
        # Clamp: never more shards than trials.
        assert len(plan_shards(spec, 100)) == 7
        with pytest.raises(ValueError):
            plan_shards(spec, 0)


class TestShardInvariance:
    @pytest.mark.parametrize("preset", ["skylake", "haswell"])
    def test_digest_is_shard_count_invariant(self, preset):
        spec = small_spec(preset=preset)
        reference = run_campaign(spec, n_shards=1)
        for n_shards in (2, 4, 7):
            split = run_campaign(spec, n_shards=n_shards)
            assert split.digest() == reference.digest(), (
                f"{preset} campaign digest changed at {n_shards} shards"
            )
        assert reference.n_trials == spec.n_blocks

    def test_trial_records_embed_rng_positions(self):
        spec = small_spec()
        record = run_trial(spec, 3)
        assert len(record["rng_digest"]) == 64
        # Pure function of (spec, index): bit-for-bit reproducible.
        assert run_trial(spec, 3) == record

    def test_forked_map_reduce_matches_serial(self):
        spec = small_spec()
        serial = run_campaign(spec, n_shards=1)
        pool = TrialPool(2, chunk_size=2)
        forked = run_campaign(spec, n_shards=1, pool=pool)
        assert forked.digest() == serial.digest()


class TestCampaignStore:
    def test_warm_run_is_served_without_trials(self, tmp_path):
        spec = small_spec()
        store = ContentStore(tmp_path / "store")
        ran = []
        cold = run_campaign(
            spec, n_shards=3, store=store, pre_trial=ran.append
        )
        assert len(ran) == spec.n_blocks
        ran.clear()
        warm = run_campaign(
            spec, n_shards=3, store=store, pre_trial=ran.append
        )
        assert ran == []  # every shard came from the store
        assert warm.digest() == cold.digest()
        stats = store.stats_dict()
        assert stats["memory_hits"] == 3
        assert stats["puts"] == 3

    def test_shard_cache_shared_across_tenants(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        run_campaign(small_spec(tenant="alpha"), n_shards=2, store=store)
        ran = []
        run_campaign(
            small_spec(tenant="beta", name="other"),
            n_shards=2,
            store=store,
            pre_trial=ran.append,
        )
        assert ran == []  # same science, different tenant: shared entries


class TestCoordinatorScheduling:
    """The one scheduler, driven in-process as single-host ``serve`` is."""

    def test_two_tenants_fair_share(self, tmp_path):
        coord = Coordinator(tmp_path, log=quiet)
        a = coord.submit(small_spec(tenant="alpha", shards=4))
        b = coord.submit(
            small_spec(tenant="beta", name="b", seed=11, shards=2)
        )
        # The first two claims must serve the two tenants alternately,
        # not drain alpha first.
        first = coord.claim("test")["work"]
        second = coord.claim("test")["work"]
        assert coord._tenant_dispatched == {"alpha": 1, "beta": 1}
        run_claimed(coord, first)
        run_claimed(coord, second)
        drain(coord)
        results = {
            cid: coord.campaign(cid).result() for cid in (a, b)
        }
        assert results[a]["n_trials"] == 7
        assert results[a]["digest"] != results[b]["digest"]

    def test_result_matches_plain_run(self, tmp_path):
        spec = small_spec(shards=3)
        coord = Coordinator(tmp_path, log=quiet)
        cid = coord.submit(spec)
        drain(coord)
        result = json.loads(
            (tmp_path / "results" / f"{cid}.json").read_text()
        )
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()
        assert result["shards"] == 3
        assert result["tenant"] == "default"

    def test_submit_is_idempotent(self, tmp_path):
        coord = Coordinator(tmp_path, log=quiet)
        spec = small_spec()
        assert coord.submit(spec) == coord.submit(spec)
        assert len(coord.status()["campaigns"]) == 1

    def test_checkpoint_resume_after_partial_run(self, tmp_path):
        spec = small_spec(shards=4)
        first = Coordinator(tmp_path, log=quiet)
        cid = first.submit(spec)
        run_one_shard(first)  # one shard done, checkpointed
        done_before = len(first.campaign(cid).done)
        assert done_before == 1

        second = Coordinator(tmp_path, log=quiet)
        assert second.submit(spec) == cid
        state = second.campaign(cid)
        assert state.resumed_shards == done_before
        drain(second)
        result = second.campaign(cid).result()
        assert result["resumed_shards"] == done_before
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()

    def test_resume_rejects_changed_shard_layout(self, tmp_path):
        spec = small_spec(shards=2)
        first = Coordinator(tmp_path, log=quiet)
        first.submit(spec)
        run_one_shard(first)
        second = Coordinator(tmp_path, log=quiet)
        with pytest.raises(CheckpointMismatch):
            second.submit(spec.with_shards(3))

    def test_fully_cached_campaign_completes_at_submit(self, tmp_path):
        spec = small_spec(shards=2)
        cold = Coordinator(tmp_path, log=quiet)
        cid = cold.submit(spec)
        drain(cold)
        reference = cold.campaign(cid).result()

        # Same store, no checkpoint: served, not resumed.
        for ck in (tmp_path / "checkpoints").glob("*"):
            ck.unlink()
        served = Coordinator(tmp_path, log=quiet)
        assert served.submit(spec) == cid
        state = served.campaign(cid)
        assert state.complete
        assert state.cached_shards == 2
        assert state.result()["digest"] == reference["digest"]


class TestMetricsServer:
    def test_serves_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", "test counter", labels=("kind",)
        ).inc(kind="unit")
        with MetricsServer(port=0, registry=registry) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                body = response.read().decode("utf-8")
                assert response.headers["Content-Type"] == CONTENT_TYPE
        assert "repro_test_total" in body
        assert 'kind="unit"' in body

    def test_other_paths_404(self):
        with MetricsServer(port=0, registry=MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/other", timeout=5
                )
            assert err.value.code == 404


class TestSpool:
    def test_submit_load_round_trip(self, tmp_path):
        spec = small_spec(name="queued")
        path = submit_job(tmp_path, spec)
        assert path.exists()
        assert pending_jobs(tmp_path) == [spec]
        # Malformed spool entries are skipped, not fatal.
        (tmp_path / "jobs" / "broken.json").write_text("{nope")
        assert pending_jobs(tmp_path) == [spec]

    def test_serve_once_drains_and_writes_results(self, tmp_path):
        root = tmp_path / "svc"
        spec_a = small_spec(name="a", tenant="alpha", shards=2)
        spec_b = small_spec(name="b", tenant="beta", seed=11, shards=2)
        submit_job(root, spec_a)
        submit_job(root, spec_b)
        logs = []
        assert serve(root, workers=1, once=True, log=logs.append) == 0
        results = sorted((root / "results").glob("*.json"))
        assert len(results) == 2
        by_name = {
            json.loads(p.read_text())["name"]: json.loads(p.read_text())
            for p in results
        }
        assert by_name["a"]["digest"] == run_campaign(
            spec_a, n_shards=1
        ).digest()
        stats = json.loads((root / "store-stats.json").read_text())
        assert stats["puts"] >= 4  # two campaigns x two shards
        assert pending_jobs(root) == []  # completed jobs are not reloaded

        # Warm restart over the same root: all shards come from the store.
        for path in results:
            path.unlink()
        (root / "checkpoints").mkdir(exist_ok=True)
        for ck in (root / "checkpoints").glob("*"):
            ck.unlink()
        assert serve(root, workers=1, once=True, log=logs.append) == 0
        rerun = json.loads(
            (root / "results" / results[0].name).read_text()
        )
        assert rerun["cached_shards"] == rerun["shards"]
        assert rerun["digest"] == by_name[rerun["name"]]["digest"]

    def test_resharded_resubmission_is_quarantined_not_wedged(
        self, tmp_path
    ):
        # A half-run campaign resubmitted with only ``shards`` changed
        # keeps its campaign id and overwrites its job file; its
        # checkpoint no longer matches.  Every restart must still drain
        # the other jobs instead of raising on the stale one.
        from repro import obs

        root = tmp_path / "svc"
        spec = small_spec(name="wedge", shards=4)
        other = small_spec(name="other", tenant="beta", seed=11, shards=2)
        submit_job(root, spec)
        half = Coordinator(root, log=quiet)
        half.submit(spec)
        run_one_shard(half)
        path = submit_job(root, spec.with_shards(2))
        submit_job(root, other)
        before = obs.resilience_event_counts().get(
            "spool_checkpoint_mismatch", 0
        )
        logs = []
        for _ in range(2):
            assert serve(root, once=True, log=logs.append) == 0
        assert not path.exists()
        assert path.with_name(path.name + ".mismatch").exists()
        assert any("quarantined" in line for line in logs)
        assert (
            obs.resilience_event_counts()["spool_checkpoint_mismatch"]
            == before + 1
        )
        result = json.loads(
            (root / "results" / f"{other.campaign_id()}.json").read_text()
        )
        assert result["digest"] == run_campaign(other).digest()
        assert not (
            root / "results" / f"{spec.campaign_id()}.json"
        ).exists()


@pytest.mark.slow
class TestServiceKillResume:
    def _serve_cmd(self, root: Path, delay: float) -> list:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--root", str(root), "--once", "--workers", "2",
        ]
        if delay:
            cmd += ["--trial-delay", str(delay)]
        return cmd

    def test_sigkilled_service_resumes_to_reference_digest(self, tmp_path):
        spec = small_spec(name="kill", shards=3, n_blocks=6)
        reference = run_campaign(spec, n_shards=1).digest()

        root = tmp_path / "svc"
        submit_job(root, spec)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        proc = subprocess.Popen(
            self._serve_cmd(root, delay=0.4),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as the first shard has checkpointed: the
            # surviving state is a partial campaign mid-flight.
            ckpt = root / "checkpoints" / f"{spec.campaign_id()}.ckpt"
            deadline = time.time() + 60
            while not ckpt.exists() and time.time() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert ckpt.exists(), "service never wrote a checkpoint"
            assert proc.poll() is None, "service finished before the kill"
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=30)
        assert not (root / "results" / f"{spec.campaign_id()}.json").exists()

        # Restart (no delay): must resume and converge, not recompute
        # into a different answer.
        done = subprocess.run(
            self._serve_cmd(root, delay=0.0),
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(
            (root / "results" / f"{spec.campaign_id()}.json").read_text()
        )
        assert result["digest"] == reference
        assert result["resumed_shards"] + result["cached_shards"] >= 1
