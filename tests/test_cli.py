"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import load_dataset


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(["build-dataset", "--out", "x.npz"])
        assert args.n_ia == 100
        assert not args.no_images

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestWorkflow:
    def test_build_lightcurve_dataset(self, tmp_path, capsys):
        out = tmp_path / "lc.npz"
        code = main([
            "build-dataset", "--n-ia", "30", "--n-non-ia", "30",
            "--no-images", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        dataset = load_dataset(out)
        assert len(dataset) == 60
        assert dataset.stamp_size == 1

    def test_full_classifier_workflow(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.npz"
        model_path = tmp_path / "clf.npz"
        assert main([
            "build-dataset", "--n-ia", "40", "--n-non-ia", "40",
            "--no-images", "--seed", "5", "--out", str(dataset_path),
        ]) == 0
        assert main([
            "train-classifier", "--dataset", str(dataset_path),
            "--epochs", "10", "--units", "32", "--seed", "1",
            "--out", str(model_path),
        ]) == 0
        assert model_path.exists()
        assert main([
            "evaluate", "--dataset", str(dataset_path),
            "--classifier", str(model_path), "--units", "32",
        ]) == 0
        output = capsys.readouterr().out
        assert "test AUC" in output

    def test_flux_cnn_workflow(self, tmp_path, capsys):
        dataset_path = tmp_path / "img.npz"
        model_path = tmp_path / "cnn.npz"
        # Tiny imaging dataset via the library (CLI build of images is slow).
        from repro.datasets import BuildConfig, DatasetBuilder, save_dataset
        from repro.survey import ImagingConfig

        config = BuildConfig(
            n_ia=10, n_non_ia=10, seed=9, catalog_size=50,
            imaging=ImagingConfig(stamp_size=41),
        )
        save_dataset(DatasetBuilder(config).build(), dataset_path)
        assert main([
            "train-flux-cnn", "--dataset", str(dataset_path),
            "--input-size", "36", "--epochs", "1", "--out", str(model_path),
        ]) == 0
        assert model_path.exists()

    def test_flux_cnn_rejects_small_stamps(self, tmp_path, capsys):
        dataset_path = tmp_path / "lc.npz"
        main([
            "build-dataset", "--n-ia", "20", "--n-non-ia", "20",
            "--no-images", "--seed", "2", "--out", str(dataset_path),
        ])
        code = main([
            "train-flux-cnn", "--dataset", str(dataset_path),
            "--out", str(tmp_path / "cnn.npz"),
        ])
        assert code == 2


@pytest.mark.faults
class TestClassify:
    """The degradation-tolerant serving command and its failure paths."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """(model_dir, clean_dataset_path, dataset) for the classify tests."""
        from repro.core import SupernovaPipeline
        from repro.datasets import BuildConfig, DatasetBuilder, save_dataset
        from repro.serve import FluxPrior, InferenceEngine
        from repro.survey import ImagingConfig

        root = tmp_path_factory.mktemp("classify")
        config = BuildConfig(
            n_ia=5, n_non_ia=5, seed=23, catalog_size=60,
            imaging=ImagingConfig(stamp_size=41),
        )
        dataset = DatasetBuilder(config).build()
        dataset_path = root / "ds.npz"
        save_dataset(dataset, dataset_path)
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        engine = InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))
        model_dir = root / "model"
        engine.save(str(model_dir))
        return model_dir, dataset_path, dataset

    def _degraded_dataset_path(self, served, tmp_path):
        """The clean dataset with band r dropped from every sample."""
        from dataclasses import replace

        from repro.datasets import save_dataset
        from repro.runtime import DropBand

        _, _, dataset = served
        degraded = replace(dataset, pairs=DropBand(1)(dataset.pairs))
        path = tmp_path / "degraded.npz"
        save_dataset(degraded, path)
        return path

    def test_clean_dataset_streams_json(self, served, tmp_path, capsys):
        import json

        model_dir, dataset_path, dataset = served
        out = tmp_path / "results.jsonl"
        code = main([
            "classify", "--model", str(model_dir),
            "--dataset", str(dataset_path), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == len(dataset)
        first = json.loads(lines[0])
        assert first["degraded"] is False and first["confidence"] == 1.0
        assert "0 degraded" in capsys.readouterr().err

    def test_dropped_band_served_leniently(self, served, tmp_path, capsys):
        import json

        model_dir, _, _ = served
        degraded_path = self._degraded_dataset_path(served, tmp_path)
        out = tmp_path / "degraded.jsonl"
        code = main([
            "classify", "--model", str(model_dir),
            "--dataset", str(degraded_path), "--out", str(out),
        ])
        assert code == 0  # degraded-but-served
        for line in out.read_text().splitlines():
            payload = json.loads(line)
            assert payload["degraded"] is True
            assert "r" not in payload["usable_bands"]
            assert payload["confidence"] < 1.0

    def test_dropped_band_refused_in_strict_mode(self, served, tmp_path, capsys):
        """The stream refuses the first degraded sample, once: the dataset
        loads, and the refusal is the stream's, with its request id."""
        from repro.obs import EVENTS_FILE, read_events

        model_dir, _, _ = served
        degraded_path = self._degraded_dataset_path(served, tmp_path)
        telemetry = tmp_path / "t"
        code = main([
            "classify", "--model", str(model_dir),
            "--dataset", str(degraded_path), "--strict",
            "--telemetry", str(telemetry),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "sample 0" in err and "degraded" in err
        events = list(read_events(telemetry / EVENTS_FILE))
        rejected = [e for e in events if e["event"] == "serve.rejected"]
        assert len(rejected) == 1
        assert rejected[0]["index"] == 0 and rejected[0]["band"] == "r"
        (error,) = [e for e in events if e["event"] == "cli.error"]
        assert error["request_id"] == rejected[0]["request_id"]
        assert error["request_id"].endswith("/r0")

    def test_truncated_model_dir_exits_3(self, served, tmp_path, capsys):
        import shutil

        from repro.runtime import truncate_file

        model_dir, dataset_path, _ = served
        broken = tmp_path / "broken_model"
        shutil.copytree(model_dir, broken)
        truncate_file(broken / "flux_cnn.npz", keep_fraction=0.3)
        code = main([
            "classify", "--model", str(broken), "--dataset", str(dataset_path),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_dataset_exits_2(self, served, tmp_path, capsys):
        from repro.runtime import atomic_savez

        model_dir, _, _ = served
        bad = tmp_path / "malformed.npz"
        arrays = {
            name: np.zeros(3)
            for name in (
                "pairs", "visit_mjd", "visit_band", "true_flux", "labels",
                "sn_types", "redshifts", "host_mag", "sn_offset", "peak_mjd",
            )
        }
        atomic_savez(bad, arrays)
        code = main(["classify", "--model", str(model_dir), "--dataset", str(bad)])
        assert code == 2
        assert "pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_model_load_keeps_existing_out(
        self, served, tmp_path, capsys, workers
    ):
        _, dataset_path, _ = served
        out = tmp_path / "night.jsonl"
        out.write_bytes(b'{"index":0,"probability":0.25}\n')
        before = out.read_bytes()
        code = main([
            "classify", "--model", str(tmp_path / "missing"),
            "--dataset", str(dataset_path), "--out", str(out),
            "--workers", workers,
        ])
        assert code in (2, 3)
        assert out.read_bytes() == before
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--workers", "--batch-size"])
    def test_option_below_one_exits_2(self, served, tmp_path, capsys, option):
        model_dir, dataset_path, _ = served
        out = tmp_path / "night.jsonl"
        out.write_bytes(b"earlier results\n")
        code = main([
            "classify", "--model", str(model_dir),
            "--dataset", str(dataset_path), "--out", str(out),
            option, "0",
        ])
        assert code == 2
        assert option in capsys.readouterr().err
        assert out.read_bytes() == b"earlier results\n"

    @pytest.mark.serve
    def test_pool_workers_match_in_process(self, served, tmp_path):
        """``--workers 2`` (the process pool) writes the same bytes as
        ``--workers 1``, and so does any ``--batch-size``: a sample's
        score does not depend on the batch or shard it is scored in."""
        import json
        from dataclasses import replace

        from repro.datasets import save_dataset
        from repro.runtime import DropBand

        model_dir, _, dataset = served
        pairs = dataset.pairs.copy()
        pairs[:4] = DropBand(1)(pairs[:4])
        mixed = tmp_path / "mixed.npz"
        save_dataset(replace(dataset, pairs=pairs), mixed)
        outputs = {}
        for workers, batch_size in (("1", "3"), ("2", "3"), ("1", "7")):
            out = tmp_path / f"workers{workers}-batch{batch_size}.jsonl"
            code = main([
                "classify", "--model", str(model_dir), "--dataset", str(mixed),
                "--out", str(out), "--batch-size", batch_size, "--workers", workers,
            ])
            assert code == 0
            outputs[workers, batch_size] = out.read_bytes()
        serial = [json.loads(line) for line in outputs["1", "3"].splitlines()]
        assert [r["index"] for r in serial] == list(range(len(dataset)))
        assert any(r["degraded"] for r in serial)
        assert outputs["2", "3"] == outputs["1", "3"]
        assert outputs["1", "7"] == outputs["1", "3"]

    def test_missing_dataset_exits_2(self, served, capsys):
        model_dir, _, _ = served
        code = main([
            "classify", "--model", str(model_dir),
            "--dataset", str(model_dir / "nope.npz"),
        ])
        assert code == 2
