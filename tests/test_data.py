"""Synthetic benchmark: rendering fidelity, coverage, determinism, I/O."""

import dataclasses
import json

import numpy as np
import pytest

from persearch.data import (
    PYRAMID_STRIDES,
    Benchmark,
    BenchmarkConfig,
    IdentityBank,
    Person,
    load_benchmark,
    make_benchmark,
    render_scene,
)
from persearch.detector import Box, iou
from persearch.errors import ConfigError, DataError, write_manifest
from persearch.losses import UNLABELED
from persearch.tensor import Tensor, bilinear_sample_rows
from persearch.training import detect_scene


def small_cfg(**kw):
    base = dict(
        num_train=6,
        num_gallery=8,
        num_queries=4,
        labeled_identities=4,
        unlabeled_identities=2,
        persons_per_scene=2,
        feature_dim=8,
        image_size=64,
        sigma_bg=0.05,
        seed=3,
    )
    base.update(kw)
    return BenchmarkConfig(**base)


class TestIdentityBank:
    def test_unit_norm_rows(self):
        bank = IdentityBank.create(5, 3, 16, seed=0)
        np.testing.assert_allclose(
            np.linalg.norm(bank.vectors, axis=1), np.ones(8), atol=1e-12
        )
        assert bank.num_labeled == 5

    def test_seed_determinism(self):
        a = IdentityBank.create(4, 2, 8, seed=9)
        b = IdentityBank.create(4, 2, 8, seed=9)
        c = IdentityBank.create(4, 2, 8, seed=10)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)


class TestRenderScene:
    def test_pyramid_shapes(self):
        bank = IdentityBank.create(3, 0, 8, seed=1)
        persons = [Person(Box(0.2, 0.2, 0.5, 0.6), 0, 0)]
        maps = render_scene(bank, persons, 256, 0.1, np.random.default_rng(0))
        assert [m.shape for m in maps] == [(8, 32, 32), (8, 16, 16), (8, 8, 8)]

    def test_center_recovers_identity_without_noise(self):
        # Clean scene, separated persons: the feature sampled at a box
        # center points along that person's identity vector.
        bank = IdentityBank.create(3, 0, 16, seed=2)
        persons = [
            Person(Box(0.1, 0.1, 0.4, 0.45), 0, 0),
            Person(Box(0.6, 0.55, 0.9, 0.9), 1, 1),
        ]
        maps = render_scene(bank, persons, 256, 0.0, np.random.default_rng(0))
        fine = maps[0]
        side = fine.shape[1]
        for p in persons:
            cx, cy = p.box.center
            sample = bilinear_sample_rows(fine, Tensor([[cx * (side - 1), cy * (side - 1)]])).data[0]
            cos = sample @ bank.vectors[p.bank_index] / np.linalg.norm(sample)
            assert cos > 0.99

    def test_background_noise_level(self):
        bank = IdentityBank.create(2, 0, 8, seed=3)
        maps = render_scene(bank, [], 256, 0.1, np.random.default_rng(4))
        flat = maps[0].data.reshape(-1)
        assert abs(flat.std() - 0.1) < 0.01
        assert abs(flat.mean()) < 0.01

    def test_zero_outside_boxes_when_clean(self):
        bank = IdentityBank.create(2, 0, 8, seed=4)
        persons = [Person(Box(0.05, 0.05, 0.3, 0.3), 0, 0)]
        maps = render_scene(bank, persons, 256, 0.0, np.random.default_rng(0))
        # A far corner pixel sees nothing.
        assert np.all(maps[0].data[:, -1, -1] == 0.0)


# One valid value per BenchmarkConfig field that differs from small_cfg's.
NON_DEFAULT = {
    "num_train": 7,
    "num_gallery": 9,
    "num_queries": 3,
    "labeled_identities": 5,
    "unlabeled_identities": 3,
    "persons_per_scene": 3,
    "feature_dim": 6,
    "image_size": 96,
    "sigma_bg": 0.2,
    "detector_sigma": 0.05,
    "occlusion_rate": 0.9,
    "co_travellers": True,
    "seed": 4,
}


def benchmark_effect(cfg, out_dir):
    """What a benchmark config decides: the manifest without its copy of the
    config, every blob, and the detections training draws for each scene
    (the detector noise acts only there)."""
    bench = make_benchmark(cfg, out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    del manifest["config"]
    blobs = {str(f.relative_to(out_dir)): f.read_bytes() for f in sorted(out_dir.rglob("*.sqt"))}
    detections = [detect_scene(bench, sid, 4, run_seed=0).boxes for sid in sorted(bench.scenes)]
    return manifest, blobs, detections


class TestMakeBenchmark:
    def test_query_identities_have_other_scene_matches(self, tmp_path):
        bench = make_benchmark(small_cfg(), tmp_path / "d")
        for q in bench.queries:
            others = [
                sid
                for sid in bench.gallery_ids
                if sid != q["scene"]
                and any(l == q["identity"] for _, l in bench.truth(sid))
            ]
            assert others, f"query {q} has no true match outside its scene"

    def test_distinct_identities_within_scene(self, tmp_path):
        bench = make_benchmark(small_cfg(), tmp_path / "d")
        for sid, meta in bench.scenes.items():
            banks = [p.bank_index for p in meta.persons]
            assert len(banks) == len(set(banks))

    def test_scene_counts_and_splits(self, tmp_path):
        bench = make_benchmark(small_cfg(), tmp_path / "d")
        assert len(bench.train_ids) == 6
        assert len(bench.gallery_ids) == 8
        assert len(bench.queries) == 4

    def test_infeasible_query_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_benchmark(small_cfg(num_gallery=2, num_queries=50), tmp_path / "d")

    def test_every_config_field_has_an_effect(self, tmp_path):
        base = small_cfg()
        default = benchmark_effect(base, tmp_path / "default")
        for f in dataclasses.fields(BenchmarkConfig):
            assert f.name in NON_DEFAULT, f"no non-default value for BenchmarkConfig.{f.name}"
            assert NON_DEFAULT[f.name] != getattr(base, f.name)
            cfg = dataclasses.replace(base, **{f.name: NON_DEFAULT[f.name]})
            assert benchmark_effect(cfg, tmp_path / f.name) != default, f.name

    def test_byte_identical_regeneration(self, tmp_path):
        make_benchmark(small_cfg(), tmp_path / "a")
        make_benchmark(small_cfg(), tmp_path / "b")
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb
        for f in sorted((tmp_path / "a" / "scenes").iterdir()):
            twin = tmp_path / "b" / "scenes" / f.name
            assert f.read_bytes() == twin.read_bytes(), f.name

    def test_different_seed_changes_scenes(self, tmp_path):
        a = make_benchmark(small_cfg(seed=1), tmp_path / "a")
        b = make_benchmark(small_cfg(seed=2), tmp_path / "b")
        assert a.truth(0) != b.truth(0)

    def test_stored_blobs_match_regeneration(self, tmp_path):
        bench = make_benchmark(small_cfg(), tmp_path / "d")
        sid = bench.gallery_ids[0]
        stored = bench.pyramid(sid)
        regen = bench.regenerate_pyramid(sid)
        for s, r in zip(stored, regen):
            assert s.data.tobytes() == r.data.tobytes()

    def test_occlusion_rate_one_forces_overlap(self, tmp_path):
        bench = make_benchmark(
            small_cfg(occlusion_rate=1.0, num_train=4, num_gallery=6, num_queries=2),
            tmp_path / "d",
        )
        overlapping = 0
        for sid in bench.scenes:
            boxes = [b for b, _ in bench.truth(sid)]
            if len(boxes) >= 2 and iou(boxes[0], boxes[1]) >= 0.2:
                overlapping += 1
        assert overlapping == len(bench.scenes)

    def test_occlusion_rate_zero_keeps_separation(self, tmp_path):
        bench = make_benchmark(
            small_cfg(occlusion_rate=0.0, num_train=4, num_gallery=6, num_queries=2),
            tmp_path / "d",
        )
        for sid in bench.scenes:
            boxes = [b for b, _ in bench.truth(sid)]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert iou(boxes[i], boxes[j]) < 0.1

    def test_co_travellers_pairing(self, tmp_path):
        bench = make_benchmark(
            small_cfg(co_travellers=True, labeled_identities=4, num_queries=2),
            tmp_path / "d",
        )
        for sid, meta in bench.scenes.items():
            labels = [p.label for p in meta.persons if p.label >= 0]
            for l in labels:
                partner = l + 1 if l % 2 == 0 else l - 1
                assert partner in labels, f"scene {sid}: {l} travels alone"

    def test_unlabeled_persons_marked(self, tmp_path):
        bench = make_benchmark(small_cfg(seed=5), tmp_path / "d")
        saw_unlabeled = False
        for sid, meta in bench.scenes.items():
            for p in meta.persons:
                if p.bank_index >= bench.config.labeled_identities:
                    assert p.label == UNLABELED
                    saw_unlabeled = True
                else:
                    assert p.label == p.bank_index
        assert saw_unlabeled


class TestLoadBenchmark:
    def test_round_trip(self, tmp_path):
        made = make_benchmark(small_cfg(), tmp_path / "d")
        loaded = load_benchmark(tmp_path / "d")
        assert loaded.config == made.config
        assert loaded.queries == made.queries
        assert loaded.scenes == made.scenes
        sid = made.gallery_ids[0]
        for a, b in zip(made.pyramid(sid), loaded.pyramid(sid)):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize(
        "changes",
        [{}, {"co_travellers": True, "persons_per_scene": 3}, {"unlabeled_identities": 0}],
        ids=["default", "co-travellers-3", "no-unlabeled"],
    )
    def test_load_gives_back_what_make_returned(self, tmp_path, changes):
        # Scene ids and splits, labels and query identities are derived
        # on load; they must equal the ones generation drew.
        made = make_benchmark(small_cfg(**changes), tmp_path / "d")
        loaded = load_benchmark(tmp_path / "d")
        assert (loaded.root, loaded.config) == (made.root, made.config)
        assert loaded.bank.num_labeled == made.bank.num_labeled
        assert np.array_equal(loaded.bank.vectors, made.bank.vectors)
        assert loaded.scenes == made.scenes
        assert loaded.queries == made.queries
        assert (loaded.train_ids, loaded.gallery_ids) == (made.train_ids, made.gallery_ids)

    def test_manifest_stores_each_fact_once(self, tmp_path):
        make_benchmark(small_cfg(), tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest.keys() == {"format_version", "kind", "config", "scenes", "queries"}
        assert manifest["format_version"] == 2
        assert len(manifest["scenes"]) == 6 + 8
        assert all(s.keys() == {"persons"} for s in manifest["scenes"])
        assert all(p.keys() == {"box", "bank"} for s in manifest["scenes"] for p in s["persons"])
        assert all(q.keys() == {"scene", "person"} for q in manifest["queries"])

    def test_manifest_writer_refuses_non_finite_numbers(self, tmp_path):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_manifest(tmp_path / "m.json", {"sigma_bg": value})

    def test_missing_dir_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_benchmark(tmp_path / "nope")

    def test_corrupt_manifest_raises_data_error(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "manifest.json").write_text("{broken")
        with pytest.raises(DataError):
            load_benchmark(d)

    def test_missing_scene_blob_raises(self, tmp_path):
        bench = make_benchmark(small_cfg(), tmp_path / "d")
        sid = bench.gallery_ids[0]
        (tmp_path / "d" / "scenes" / f"scene_{sid:05d}_l0.sqt").unlink()
        loaded = load_benchmark(tmp_path / "d")
        with pytest.raises(DataError):
            loaded.pyramid(sid)
