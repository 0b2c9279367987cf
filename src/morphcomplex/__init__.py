"""Corpus-based morphological complexity measures for CoNLL-U treebanks."""

from .analysis import (
    MeasureMatrix,
    PcaResult,
    RidgeReport,
    correlation_matrix,
    pca,
    pearson,
    ridge_loocv,
    spearman,
    standardize,
)
from .conllu import (
    ExclusionConfig,
    Treebank,
    apply_exclusions,
    parse_conllu,
)
from .inflection import (
    EditScript,
    IAResult,
    IASearchConfig,
    InflectionInstance,
    cross_validate,
    derive_edit_script,
    extract_instances,
)
from .measures import (
    ALL_MEASURES,
    feature_entropy,
    inflectional_synthesis,
    lemma_entropy,
    msp,
    plugin_entropy,
    ttr,
    word_entropy,
    word_structure_information,
)
from .sampling import Sample, SampleConfig, bootstrap_sample, run_repetitions
from .wals import DesignMatrix, WalsRecord, encode, load_wals

__version__ = "0.1.0"

__all__ = [
    "ALL_MEASURES",
    "DesignMatrix",
    "EditScript",
    "ExclusionConfig",
    "IAResult",
    "IASearchConfig",
    "InflectionInstance",
    "MeasureMatrix",
    "PcaResult",
    "RidgeReport",
    "Sample",
    "SampleConfig",
    "Treebank",
    "WalsRecord",
    "apply_exclusions",
    "bootstrap_sample",
    "correlation_matrix",
    "cross_validate",
    "derive_edit_script",
    "encode",
    "extract_instances",
    "feature_entropy",
    "inflectional_synthesis",
    "lemma_entropy",
    "load_wals",
    "msp",
    "parse_conllu",
    "pca",
    "pearson",
    "plugin_entropy",
    "ridge_loocv",
    "run_repetitions",
    "spearman",
    "standardize",
    "ttr",
    "word_entropy",
    "word_structure_information",
]
