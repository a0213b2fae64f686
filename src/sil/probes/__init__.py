"""Model-behavior probes: minimal pairs, attention analyses, regression."""

from .attention import (AttentionReport, OfReport, attention_by_position,
                        attention_for_records, partitive_of_analysis)
from .minimal_pairs import (MinimalPairVariant, SentenceFrame,
                            generate_minimal_pairs, load_frames,
                            minimal_pair_report, realize, score_variants)
from .regression import (CoefficientComparison, CoefficientRow,
                         RegressionSpec, build_design, regression_compare)

__all__ = [
    "AttentionReport", "OfReport", "attention_by_position",
    "attention_for_records", "partitive_of_analysis",
    "MinimalPairVariant", "SentenceFrame",
    "generate_minimal_pairs", "load_frames", "minimal_pair_report",
    "realize", "score_variants",
    "CoefficientComparison", "CoefficientRow", "RegressionSpec",
    "build_design", "regression_compare",
]
