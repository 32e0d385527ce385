"""Model registry: immutable store, lifecycle, integrity, guard, CLI.

Also hosts the artifact-integrity satellites: ``SupernovaPipeline.load``
naming the offending *file* on an architecture mismatch, the terminal
``cli.error`` event carrying that path, ``DriftBaseline.load`` raising
on malformed JSON, and the ``serve.no_drift_baseline`` warning.
"""

import json
import math
import os
import shutil

import numpy as np
import pytest

from repro import obs
from repro.cli import EXIT_BAD_INPUT, EXIT_CORRUPT_ARTIFACT, main
from repro.core import SupernovaPipeline
from repro.obs import EVENTS_FILE, read_events
from repro.obs.drift import BASELINE_FILE, DriftBaseline
from repro.registry import (
    DIVERGENCE_BUDGET,
    GATE_MIN_SAMPLES,
    GuardConfig,
    ModelRegistry,
    RegistryError,
    RollbackGuard,
    STATUS_PRODUCTION,
    STATUS_REGISTERED,
    STATUS_RETIRED,
    STATUS_ROLLED_BACK,
    gate_verdict,
)
from repro.runtime import CorruptArtifactError, atomic_write_json, file_sha256
from repro.serve import InferenceEngine

from .helpers import make_serve_engine, save_gate_dataset, save_model_variant

pytestmark = pytest.mark.registry


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """One saved model directory, shared read-only by every test."""
    directory = tmp_path_factory.mktemp("model")
    make_serve_engine(seed=0).save(str(directory))
    return directory


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


def _corrupt(path) -> None:
    """Flip the leading bytes of a pinned file."""
    with open(path, "r+b") as handle:
        handle.write(b"\xde\xad\xbe\xef")


class TestAtomicIO:
    def test_atomic_write_json_replaces_whole_document(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"b": 2})
        assert json.loads(target.read_text()) == {"b": 2}
        # No stray temp files left behind.
        assert os.listdir(tmp_path) == ["state.json"]

    def test_file_sha256_matches_content(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(b"supernova")
        import hashlib

        assert file_sha256(target) == hashlib.sha256(b"supernova").hexdigest()


class TestStoreLifecycle:
    def test_register_assigns_versions_and_pins_checksums(self, registry, model_dir):
        assert registry.register(model_dir) == "v1"
        assert registry.register(model_dir, note="retrain") == "v2"
        state = registry.state()
        assert state["next_version"] == 3
        record = state["versions"]["v1"]
        assert record["status"] == STATUS_REGISTERED
        assert set(record["files"]) == set(os.listdir(registry.path("v1")))
        for name, digest in record["files"].items():
            assert file_sha256(os.path.join(registry.path("v1"), name)) == digest
        assert state["versions"]["v2"]["note"] == "retrain"
        assert [entry["action"] for entry in registry.history()] == [
            "register", "register",
        ]

    def test_register_refuses_non_model_directory(self, registry, tmp_path):
        empty = tmp_path / "not-a-model"
        empty.mkdir()
        with pytest.raises(RegistryError, match="manifest.json"):
            registry.register(empty)

    def test_promote_demotes_previous_production(self, registry, model_dir):
        registry.register(model_dir)
        registry.register(model_dir)
        assert registry.promote("v1") == (None, "v1")
        assert registry.promote("v2") == ("v1", "v2")
        state = registry.state()
        assert state["production"] == "v2"
        assert state["versions"]["v1"]["status"] == STATUS_RETIRED
        assert "retired_at" in state["versions"]["v1"]
        with pytest.raises(RegistryError, match="already production"):
            registry.promote("v2")

    def test_rollback_quarantines_and_restores_last_good(self, registry, model_dir):
        for _ in range(3):
            registry.register(model_dir)
        registry.promote("v1")
        registry.promote("v2")
        registry.promote("v3")
        # v2 retired most recently: rollback must restore it, not v1.
        bad, restored = registry.rollback(reason="scores diverged")
        assert (bad, restored) == ("v3", "v2")
        state = registry.state()
        assert state["production"] == "v2"
        bad_record = state["versions"]["v3"]
        assert bad_record["status"] == STATUS_ROLLED_BACK
        assert bad_record["reason"] == "scores diverged"
        assert "rolled_back_at" in bad_record
        # The quarantined version is refused by promote without force...
        with pytest.raises(RegistryError, match="rolled back"):
            registry.promote("v3")
        # ...and accepted with it (operator override).
        assert registry.promote("v3", force=True) == ("v2", "v3")

    def test_rollback_without_history_is_refused(self, registry, model_dir):
        with pytest.raises(RegistryError, match="no production"):
            registry.rollback()
        registry.register(model_dir)
        registry.promote("v1")
        with pytest.raises(RegistryError, match="no previous good version"):
            registry.rollback()

    def test_rollback_of_an_unexpected_production_is_refused(
        self, registry, model_dir
    ):
        for _ in range(3):
            registry.register(model_dir)
        registry.promote("v1")
        registry.promote("v2")
        registry.promote("v3")
        with open(registry.state_path, "rb") as handle:
            before = handle.read()
        with pytest.raises(RegistryError, match="production is v3, not v2"):
            registry.rollback(reason="drift", expected="v2")
        with open(registry.state_path, "rb") as handle:
            assert handle.read() == before
        assert registry.rollback(expected="v3") == ("v3", "v2")

    def test_gc_removes_old_dirs_but_keeps_audit(self, registry, model_dir):
        for _ in range(4):
            registry.register(model_dir)
        for version in ("v1", "v2", "v3", "v4"):
            registry.promote(version)
        # v1..v3 retired; keep=1 collects the two oldest.
        assert registry.gc(keep=1) == ["v2", "v1"]
        state = registry.state()
        assert not os.path.isdir(registry.path("v1"))
        assert os.path.isdir(registry.path("v3"))
        assert state["versions"]["v1"]["removed"] is True
        with pytest.raises(RegistryError, match="garbage-collected"):
            registry.promote("v1", force=True)
        assert registry.gc(keep=1) == []


    def test_register_after_a_crash_past_the_rename_takes_the_name(
        self, registry, model_dir, monkeypatch
    ):
        """A register that crashed after renaming ``versions/v2`` into
        place but before writing the state leaves an orphan directory;
        the next register removes it instead of failing on it."""
        registry.register(model_dir)
        write = registry._write
        crashed = []

        def crash_once(state):
            if not crashed:
                crashed.append(True)
                raise OSError("injected crash before the state write")
            write(state)

        monkeypatch.setattr(registry, "_write", crash_once)
        with pytest.raises(OSError, match="injected"):
            registry.register(model_dir)
        assert os.path.isdir(registry.path("v2"))
        assert "v2" not in registry.state()["versions"]
        assert registry.register(model_dir, note="retry") == "v2"
        registry.verify("v2")
        assert registry.state()["next_version"] == 3
        assert registry.register(model_dir) == "v3"

    def test_gc_crash_before_its_write_deletes_nothing(
        self, registry, model_dir, monkeypatch
    ):
        """gc records the removals first: a crash before that write
        leaves every directory in place, so a rollback restores a whole
        version."""
        for _ in range(4):
            registry.register(model_dir)
        for version in ("v1", "v2", "v3", "v4"):
            registry.promote(version)
        with open(registry.state_path, "rb") as handle:
            before = handle.read()

        def crash(state):
            raise OSError("injected crash before the state write")

        monkeypatch.setattr(registry, "_write", crash)
        with pytest.raises(OSError, match="injected"):
            registry.gc(keep=0)
        monkeypatch.undo()
        for version in ("v1", "v2", "v3", "v4"):
            assert os.path.isdir(registry.path(version)), version
        with open(registry.state_path, "rb") as handle:
            assert handle.read() == before
        assert registry.rollback() == ("v4", "v3")
        registry.verify("v3")

    def test_gc_crash_after_its_write_leaves_only_orphans(
        self, registry, model_dir, monkeypatch
    ):
        """A crash while deleting leaves directories the state already
        marks removed: no rollback can restore one of them."""
        for _ in range(4):
            registry.register(model_dir)
        for version in ("v1", "v2", "v3", "v4"):
            registry.promote(version)
        rmtree = shutil.rmtree

        def crash_after_first(path, *args, **kwargs):
            rmtree(path, *args, **kwargs)
            raise OSError("injected crash mid-delete")

        monkeypatch.setattr(shutil, "rmtree", crash_after_first)
        with pytest.raises(OSError, match="injected"):
            registry.gc(keep=0)
        monkeypatch.undo()
        versions = registry.state()["versions"]
        assert all(versions[v].get("removed") for v in ("v1", "v2", "v3"))
        with pytest.raises(RegistryError, match="no previous good version"):
            registry.rollback()
        assert registry.production() == "v4"

class TestIntegrity:
    def test_verify_names_the_corrupt_file(self, registry, model_dir):
        registry.register(model_dir)
        registry.verify("v1")
        target = os.path.join(registry.path("v1"), "classifier.npz")
        _corrupt(target)
        with pytest.raises(CorruptArtifactError, match="checksum mismatch") as info:
            registry.verify("v1")
        assert info.value.path == target

    def test_verify_names_the_missing_file(self, registry, model_dir):
        registry.register(model_dir)
        target = os.path.join(registry.path("v1"), "flux_cnn.npz")
        os.remove(target)
        with pytest.raises(CorruptArtifactError, match="missing") as info:
            registry.verify("v1")
        assert info.value.path == target

    def test_verify_flags_extra_files_as_immutability_breach(
        self, registry, model_dir
    ):
        registry.register(model_dir)
        with open(os.path.join(registry.path("v1"), "sneaky.txt"), "w") as handle:
            handle.write("mutated")
        with pytest.raises(CorruptArtifactError, match="sneaky.txt"):
            registry.verify("v1")

    def test_promote_refuses_corrupt_version(self, registry, model_dir):
        registry.register(model_dir)
        _corrupt(os.path.join(registry.path("v1"), "manifest.json"))
        with pytest.raises(CorruptArtifactError):
            registry.promote("v1")
        assert registry.production() is None

    def test_corrupt_state_file_raises(self, registry, model_dir):
        registry.register(model_dir)
        with open(registry.state_path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(CorruptArtifactError, match="unreadable registry state"):
            registry.state()

    def test_unknown_format_version_raises(self, registry, model_dir):
        registry.register(model_dir)
        state = registry.state()
        state["format_version"] = 99
        atomic_write_json(registry.state_path, state)
        with pytest.raises(CorruptArtifactError, match="unsupported registry format"):
            registry.state()


    def test_rollback_refuses_a_corrupt_restore_target(
        self, registry, model_dir
    ):
        """rollback verifies the version it restores, as promote does:
        a corrupt one is refused naming the file, nothing is written,
        and ``models rollback`` exits 3."""
        registry.register(model_dir)
        registry.register(model_dir)
        registry.promote("v1")
        registry.promote("v2")
        target = os.path.join(registry.path("v1"), "manifest.json")
        with open(target, "ab") as handle:
            handle.write(b"\n")
        with open(registry.state_path, "rb") as handle:
            before = handle.read()
        with pytest.raises(CorruptArtifactError, match="checksum mismatch") as info:
            registry.rollback()
        assert info.value.path == target
        assert main(["models", "rollback", "--registry", registry.root]) == (
            EXIT_CORRUPT_ARTIFACT
        )
        with open(registry.state_path, "rb") as handle:
            assert handle.read() == before
        assert registry.production() == "v2"


class TestRollbackGuard:
    def test_drift_must_be_sustained(self):
        guard = RollbackGuard(GuardConfig(sustained_checks=3))
        assert not guard.note_drift(True)
        assert not guard.note_drift(True)
        # A clean check in between resets the streak.
        assert not guard.note_drift(False)
        assert not guard.note_drift(True)
        assert not guard.note_drift(True)
        assert guard.note_drift(True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(sustained_checks=0)


    def test_gate_verdict_is_pure_arithmetic(self):
        same = gate_verdict([0.2] * GATE_MIN_SAMPLES, [0.2] * GATE_MIN_SAMPLES)
        assert same == {
            "n": GATE_MIN_SAMPLES, "mean_abs_dp": 0.0,
            "budget": DIVERGENCE_BUDGET, "passed": True,
        }
        production = [0.1, 0.9] * (GATE_MIN_SAMPLES // 2)
        shifted = [0.3, 0.6] * (GATE_MIN_SAMPLES // 2)
        verdict = gate_verdict(production, shifted)
        assert verdict["mean_abs_dp"] == pytest.approx(0.25)
        assert not verdict["passed"]
        # Too few samples never pass, however close the scores.
        assert not gate_verdict([0.5], [0.5])["passed"]
        # A NaN probability makes the mean NaN, which never passes.
        broken = gate_verdict([0.5] * 20, [0.5] * 19 + [math.nan])
        assert math.isnan(broken["mean_abs_dp"]) and not broken["passed"]
        with pytest.raises(ValueError, match="equal-length"):
            gate_verdict([0.5] * 20, [0.5] * 21)


class TestLegacyState:
    def test_candidate_state_loads_lists_promotes_and_drops_the_key(
        self, registry, model_dir, capsys
    ):
        """A state file from before the promote gate, with v2 staged as a
        ``shadow`` candidate, still loads: v2 reads as registered, and
        the first write persists that without the ``candidate`` key."""
        registry.register(model_dir)
        registry.register(model_dir)
        registry.promote("v1")
        with open(registry.state_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["candidate"] = "v2"
        doc["versions"]["v2"]["status"] = "shadow"
        doc["history"].append(
            {"action": "shadow", "at": 0.0, "version": "v2", "by": "cli"}
        )
        atomic_write_json(registry.state_path, doc)

        state = registry.state()
        assert "candidate" not in state
        assert state["versions"]["v2"]["status"] == STATUS_REGISTERED
        capsys.readouterr()
        assert main(["models", "list", "--registry", registry.root]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed[0].split()[:3] == ["*", "v1", STATUS_PRODUCTION]
        assert listed[1].split()[:2] == ["v2", STATUS_REGISTERED]
        assert main(["models", "promote", "v2", "--registry", registry.root]) == 0
        with open(registry.state_path, encoding="utf-8") as handle:
            written = json.load(handle)
        assert "candidate" not in written
        assert written["production"] == "v2"
        assert written["versions"]["v1"]["status"] == STATUS_RETIRED
        assert written["history"][-2]["action"] == "shadow"


@pytest.fixture(scope="module")
def gate_models(tmp_path_factory):
    """Model dirs and gate datasets shared by the promote-gate tests.

    ``base`` scores near 0.53; ``near`` shifts its logits by 0.2 (mean
    |Δp| about 0.05, within budget); ``far`` shifts them by -3 (about
    0.48, over it).
    """
    root = tmp_path_factory.mktemp("gate")
    save_model_variant(root / "base", weight_scale=0.01)
    save_model_variant(root / "near", weight_scale=0.01, bias_shift=0.2)
    save_model_variant(root / "far", weight_scale=0.01, bias_shift=-3.0)
    save_gate_dataset(root / "gate.npz", n=GATE_MIN_SAMPLES + 4)
    save_gate_dataset(root / "one.npz", n=1)
    return root


def _state_bytes(registry) -> bytes:
    with open(registry.state_path, "rb") as handle:
        return handle.read()


class TestPromoteGate:
    @pytest.fixture()
    def gated(self, registry, gate_models):
        """v1 = base in production, v2 = near, v3 = far."""
        registry.promote(registry.register(gate_models / "base"))
        registry.register(gate_models / "near")
        registry.register(gate_models / "far")
        return registry

    def test_verdict_is_deterministic_and_recomputable(
        self, gated, gate_models
    ):
        """The verdict repeats exactly, equals the mean |Δp| recomputed
        from ``classify_arrays`` at batch 1 and at batch 64, and is what
        the promote's audit entry records."""
        from repro.cli import _gate
        from repro.datasets import load_dataset

        dataset_path = str(gate_models / "gate.npz")
        verdict = _gate(gated, "v2", dataset_path)
        assert _gate(gated, "v2", dataset_path) == verdict
        dataset = load_dataset(dataset_path)
        for batch in (1, 64):
            scores = {}
            for version in ("v1", "v2"):
                engine = InferenceEngine.from_directory(gated.path(version))
                scores[version] = np.array([
                    result.probability
                    for start in range(0, len(dataset), batch)
                    for result in engine.classify_arrays(
                        dataset.pairs[start : start + batch],
                        dataset.visit_mjd[start : start + batch],
                    )
                ])
            mean = float(np.mean(np.abs(scores["v2"] - scores["v1"])))
            assert verdict["mean_abs_dp"] == mean, batch
        assert 0.0 < verdict["mean_abs_dp"] <= DIVERGENCE_BUDGET
        assert verdict["n"] == len(dataset)
        assert verdict["against"] == "v1"
        assert verdict["dataset_sha256"] == file_sha256(dataset_path)
        assert main(["models", "promote", "v2", "--registry", gated.root,
                     "--gate", dataset_path]) == 0
        entry = gated.history()[-1]
        assert entry["action"] == "promote" and entry["version"] == "v2"
        assert entry["gate"] == verdict
        assert gated.production() == "v2"

    def test_refused_gates_exit_2_and_write_nothing(
        self, gated, gate_models, monkeypatch, capsys
    ):
        dataset_path = str(gate_models / "gate.npz")
        before = _state_bytes(gated)

        def promote(version, dataset):
            code = main(["models", "promote", version, "--registry", gated.root,
                         "--gate", dataset])
            assert _state_bytes(gated) == before
            return code, capsys.readouterr().err

        code, err = promote("v3", dataset_path)
        assert code == EXIT_BAD_INPUT
        assert f"exceeds budget {DIVERGENCE_BUDGET}" in err
        assert f"over {GATE_MIN_SAMPLES + 4} samples" in err
        assert "against production v1" in err
        assert "mean |Δp| 0.4" in err

        code, err = promote("v2", str(gate_models / "one.npz"))
        assert code == EXIT_BAD_INPUT
        assert f"at least {GATE_MIN_SAMPLES}" in err

        load = InferenceEngine.from_directory_unmonitored.__func__

        def crash_v2(cls, directory, *args, **kwargs):
            engine = load(cls, directory, *args, **kwargs)
            if os.path.basename(os.fspath(directory)) == "v2":
                def explode(probs):
                    raise RuntimeError("injected candidate crash")
                engine.score_hook = explode
            return engine

        monkeypatch.setattr(
            InferenceEngine, "from_directory_unmonitored", classmethod(crash_v2)
        )
        code, err = promote("v2", dataset_path)
        assert code == EXIT_BAD_INPUT
        assert "v2 failed scoring the gate dataset" in err
        monkeypatch.undo()

        fresh = ModelRegistry(gated.root + "-fresh")
        fresh.register(gate_models / "base")
        code = main(["models", "promote", "v1", "--registry", fresh.root,
                     "--gate", dataset_path])
        assert code == EXIT_BAD_INPUT
        assert "no production version" in capsys.readouterr().err
        assert fresh.production() is None

    def test_gate_refuses_a_corrupt_version_with_exit_3(
        self, gated, gate_models
    ):
        _corrupt(os.path.join(gated.path("v2"), "manifest.json"))
        before = _state_bytes(gated)
        assert main(["models", "promote", "v2", "--registry", gated.root,
                     "--gate", str(gate_models / "gate.npz")]) == (
            EXIT_CORRUPT_ARTIFACT
        )
        assert _state_bytes(gated) == before

    def test_promote_refuses_a_verdict_against_another_production(
        self, gated
    ):
        """A verdict measured against v1 no longer applies once an
        operator promoted another version: nothing is written."""
        gated.promote("v3")
        before = _state_bytes(gated)
        verdict = {"n": 24, "mean_abs_dp": 0.05, "budget": DIVERGENCE_BUDGET,
                   "passed": True, "against": "v1", "dataset_sha256": "0" * 64}
        with pytest.raises(RegistryError, match="production is v3, not v1"):
            gated.promote("v2", gate=verdict)
        assert _state_bytes(gated) == before


class TestModelsCLI:
    def test_register_promote_rollback_round_trip(self, tmp_path, model_dir, capsys):
        reg = str(tmp_path / "registry")
        assert main(["models", "register", "--registry", reg,
                     "--model", str(model_dir), "--promote"]) == 0
        assert main(["models", "register", "--registry", reg,
                     "--model", str(model_dir)]) == 0
        assert main(["models", "promote", "v2", "--registry", reg]) == 0
        assert main(["models", "rollback", "--registry", reg,
                     "--reason", "bad scores"]) == 0
        capsys.readouterr()
        assert main(["models", "list", "--registry", reg, "--json"]) == 0
        state = json.loads(capsys.readouterr().out)
        assert state["production"] == "v1"
        assert state["versions"]["v2"]["status"] == STATUS_ROLLED_BACK
        # Quarantined versions are refused without --force (exit 2)...
        assert main(["models", "promote", "v2", "--registry", reg]) == EXIT_BAD_INPUT
        # ...and promoted with it.
        assert main(["models", "promote", "v2", "--registry", reg, "--force"]) == 0

    def test_corrupt_version_exits_3_with_path_in_cli_error(
        self, tmp_path, model_dir, capsys
    ):
        """Satellite: the terminal ``cli.error`` event names the bad file."""
        reg = str(tmp_path / "registry")
        telemetry = tmp_path / "telemetry"
        assert main(["models", "register", "--registry", reg,
                     "--model", str(model_dir)]) == 0
        target = os.path.join(reg, "versions", "v1", "classifier.npz")
        _corrupt(target)
        assert main(
            ["models", "promote", "v1", "--registry", reg,
             "--telemetry", str(telemetry)]
        ) == EXIT_CORRUPT_ARTIFACT
        capsys.readouterr()
        errors = [
            record for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "cli.error"
        ]
        assert len(errors) == 1
        assert errors[0]["exit_code"] == EXIT_CORRUPT_ARTIFACT
        assert errors[0]["path"] == target

    def test_gc_via_cli(self, tmp_path, model_dir):
        reg = str(tmp_path / "registry")
        for _ in range(3):
            assert main(["models", "register", "--registry", reg,
                         "--model", str(model_dir)]) == 0
        for version in ("v1", "v2", "v3"):
            assert main(["models", "promote", version, "--registry", reg]) == 0
        assert main(["models", "gc", "--registry", reg, "--keep", "1"]) == 0
        assert not os.path.isdir(os.path.join(reg, "versions", "v1"))

    def test_serve_requires_exactly_one_model_source(self):
        assert main(["serve", "--port", "0"]) == EXIT_BAD_INPUT
        assert main(["serve", "--port", "0", "--model", "m",
                     "--registry", "r"]) == EXIT_BAD_INPUT


class TestArtifactErrorsNameTheFile:
    """Satellite: per-file blame in ``SupernovaPipeline.load``."""

    def test_mismatched_classifier_weights_name_classifier_npz(self, tmp_path):
        directory = tmp_path / "model"
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        pipe.save(str(directory))
        # Swap in weights from a structurally different classifier: the
        # error must blame classifier.npz, not the whole directory.
        other = SupernovaPipeline(input_size=36, units=4, epochs_used=1, seed=0)
        from repro.nn.serialization import save_module

        save_module(other.classifier, str(directory / "classifier.npz"))
        with pytest.raises(CorruptArtifactError, match="classifier") as info:
            SupernovaPipeline.load(str(directory))
        assert info.value.path.endswith("classifier.npz")

    def test_mismatched_cnn_weights_name_flux_cnn_npz(self, tmp_path):
        directory = tmp_path / "model"
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        pipe.save(str(directory))
        other = SupernovaPipeline(input_size=44, units=8, epochs_used=1, seed=0)
        from repro.nn.serialization import save_module

        save_module(other.cnn, str(directory / "flux_cnn.npz"))
        with pytest.raises(CorruptArtifactError, match="flux CNN") as info:
            SupernovaPipeline.load(str(directory))
        assert info.value.path.endswith("flux_cnn.npz")


class TestDriftBaselineArtifacts:
    """Satellite: baseline integrity + the missing-baseline warning."""

    def test_malformed_baseline_json_raises_corrupt_artifact(self, tmp_path):
        (tmp_path / BASELINE_FILE).write_text("{truncated")
        with pytest.raises(CorruptArtifactError):
            DriftBaseline.load(tmp_path)

    def test_absent_baseline_returns_none(self, tmp_path):
        assert DriftBaseline.load(tmp_path) is None

    @pytest.mark.obs
    def test_from_directory_without_baseline_warns(self, tmp_path, model_dir):
        assert obs.active() is None
        telemetry = tmp_path / "telemetry"
        obs.start(telemetry, run_id="run-nobaseline")
        try:
            engine = InferenceEngine.from_directory(str(model_dir))
        finally:
            obs.stop()
        assert engine.drift_baseline is None
        warnings = [
            record for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "serve.no_drift_baseline"
        ]
        assert len(warnings) == 1
        assert warnings[0]["level"] == "warning"
        assert warnings[0]["model_dir"] == str(model_dir)

    @staticmethod
    def _warned_dirs(telemetry) -> list:
        return [
            record["model_dir"] for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "serve.no_drift_baseline"
        ]

    @pytest.mark.obs
    @pytest.mark.parametrize("workers", [1, 2])
    def test_classify_warns_once(self, tmp_path, gate_models, workers):
        """In-process or through a scoring pool, a classify run of a
        baseline-less model writes exactly one warning."""
        telemetry = tmp_path / "telemetry"
        model = str(gate_models / "base")
        assert main([
            "classify", "--model", model, "--dataset", str(gate_models / "gate.npz"),
            "--workers", str(workers), "--out", str(tmp_path / "scores.jsonl"),
            "--telemetry", str(telemetry),
        ]) == 0
        assert self._warned_dirs(telemetry) == [model]

    @pytest.mark.obs
    def test_promote_gate_writes_no_warning(self, tmp_path, registry, gate_models):
        """The gate scores two baseline-less versions but serves nothing."""
        registry.promote(registry.register(gate_models / "base"))
        registry.register(gate_models / "near")
        telemetry = tmp_path / "telemetry"
        assert main([
            "models", "promote", "v2", "--registry", registry.root,
            "--gate", str(gate_models / "gate.npz"), "--telemetry", str(telemetry),
        ]) == 0
        assert registry.production() == "v2"
        assert self._warned_dirs(telemetry) == []
