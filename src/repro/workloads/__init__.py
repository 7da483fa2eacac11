"""Synthetic workloads: graded lists matching the [Fa96] probabilistic
model, the CD-store running example, and image corpora (the substitution
layer for the paper's proprietary data — see DESIGN.md)."""

from repro.workloads.cd_store import (
    ARTISTS,
    Album,
    build_store,
    generate_catalog,
)
from repro.workloads.graded_lists import (
    anti_correlated,
    boolean_column,
    correlated,
    independent,
    reversed_pair,
    workload,
    zipf_skewed,
)
from repro.workloads.image_corpus import (
    advertisements_scenario,
    build_image_database,
    corpus_histograms,
    feature_corpus,
    mixed_corpus,
)

__all__ = [
    "independent",
    "correlated",
    "anti_correlated",
    "reversed_pair",
    "zipf_skewed",
    "boolean_column",
    "workload",
    "Album",
    "ARTISTS",
    "generate_catalog",
    "build_store",
    "mixed_corpus",
    "corpus_histograms",
    "feature_corpus",
    "build_image_database",
    "advertisements_scenario",
]
