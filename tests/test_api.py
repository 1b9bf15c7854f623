"""Public one-call API (§2.8 ProcessingOptions/DocumentProcessor analog)."""

from __future__ import annotations

from horizon_ocr_python_ray import ProcessingOptions, process_pages, read_pages


def test_default_options_only_extract(corpus_dir):
    out = process_pages(read_pages(corpus_dir))
    assert set(out) == {"extract"}


def test_all_stage_toggles(corpus_dir, golden_map):
    opts = ProcessingOptions(run_fields=True, run_tables=True, run_styles=True,
                             run_reconstruction=True, run_markdown=True,
                             run_validation=True, run_redact=True)
    out = process_pages(read_pages(corpus_dir), opts)
    assert set(out) == {"extract", "fields", "tables", "styles",
                       "reconstruction", "markdown", "validation", "redact"}
    # extract stays byte-identical through the API surface
    got = {r["url"]: r["extracted_text"]
           for r in out["extract"].select_columns(["url", "extracted_text"]).take_all()}
    sample = next(iter(golden_map))
    assert got[sample] == golden_map[sample]["extracted_text"]
    for name in ("fields", "tables", "styles", "reconstruction", "markdown",
                 "validation", "redact"):
        assert out[name].count() > 0, name


def test_sf_from_dir_accepts_corpus_cache_layout():
    from horizon_ocr_python_ray.sources.synth import sf_from_dir

    assert sf_from_dir("/root/testdata/sf0.01") == 0.01
    assert sf_from_dir("/tmp/hopr_corpus/seed42_sf4_v14") == 4.0
    assert sf_from_dir("/tmp/hopr_corpus/seed42_sf0.1_v14/") == 0.1


def test_yaml_config_loading(tmp_path, corpus_dir, golden_map):
    """Reference config.py:290-316 analog: a YAML tree loads into the
    frozen dataclass config, absent keys keep defaults, unknown keys
    fail loudly, and a loaded config drives the pipeline."""
    import pytest

    from horizon_ocr_python_ray import (
        build_extract_pipeline,
        load_config,
        read_pages,
    )
    from horizon_ocr_python_ray.config import config_from_dict

    cfg_path = tmp_path / "engine.yaml"
    cfg_path.write_text(
        "dedup:\n"
        "  actor_cache_entries: 1024\n"
        "html:\n"
        "  min_block_chars: 12\n"
        "  heading_tags: [h1, h2]\n"
        "fuse:\n"
        "  source_weights: [[regex, 1.0], [layout, 0.8]]\n")
    cfg = load_config(str(cfg_path))
    assert cfg.dedup.actor_cache_entries == 1024
    assert cfg.html.max_link_density == 0.33  # absent knob keeps its default
    assert cfg.html.min_block_chars == 12
    assert cfg.html.heading_tags == ("h1", "h2")
    assert cfg.fuse.source_weights == (("regex", 1.0), ("layout", 0.8))
    assert cfg.doc.reocr_max_lines_per_page == 50  # absent section

    with pytest.raises(ValueError, match="unknown knob"):
        config_from_dict({"dedup": {"stragety": "registry"}})
    # knobs of removed extraction variants fail loudly, never silently
    for section, knob, value in [
            ("dedup", "strategy", "registry"), ("dedup", "enabled", False),
            ("dedup", "join_num_partitions", 16),
            ("doc", "recognize_concurrency", 4), ("doc", "recognize_batch_size", 64),
            ("doc", "detect_concurrency", 4), ("doc", "reocr_strategy", "ensemble")]:
        with pytest.raises(ValueError, match="unknown knob"):
            config_from_dict({section: {knob: value}})
    # the runtime section is gone with its knobs
    for knobs in ({}, {"sniff_batch_size": 1024}, {"html_batch_size": 256}):
        with pytest.raises(ValueError, match="unknown config section"):
            config_from_dict({"runtime": knobs})
    with pytest.raises(ValueError, match="unknown config section"):
        config_from_dict({"dedpu": {}})

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(str(empty)).dedup.actor_cache_entries == 65536

    # a loaded config drives the pipeline end-to-end (a memo cap smaller
    # than the corpus; extraction knobs untouched so the golden bytes
    # still apply)
    run_cfg = config_from_dict({"dedup": {"actor_cache_entries": 8}})
    df = build_extract_pipeline(read_pages(corpus_dir),
                                cfg=run_cfg).to_pandas()
    assert len(df) == len(golden_map)
    for row in df.itertuples():
        assert row.extracted_text == golden_map[row.url]["extracted_text"]
