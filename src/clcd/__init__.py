"""Multi-label causal discovery and feature selection for categorical data.

The package learns each label's local causal neighborhood (parents, children,
spouses), repairs losses caused by label-label causality, detects features
carrying equivalent information, and separates variables shared across labels
from label-specific ones. A synthetic-network toolkit with exact oracles
backs testing and benchmarking.
"""

from .benchmark import (
    ALGORITHMS,
    intersection_common,
    render_benchmark_csv,
    run_algorithm,
    run_benchmark,
)
from .citest import (
    CiConfig,
    CiResult,
    cond_mutual_information,
    g2_test,
    set_ci,
)
from .data import Dataset, load_dataset
from .discovery import (
    ClcdOutput,
    ThetaMatch,
    ThetaWitness,
    clcd,
    evaluate_theta,
    phase1_structures,
    phase2_retrieve,
    phase3_equivalences,
    theta_candidates,
)
from .equivalence import (
    EquivalencePair,
    contains_equivalent_info,
    find_equivalences,
)
from .mb import G2Tester, LocalStructure, hiton_mb, hiton_pc, iamb
from .metrics import (
    BrNbModel,
    VariableScores,
    br_nb_predict,
    br_nb_train,
    f_scores,
    hamming_loss,
    label_matrix,
    ranking_loss_detail,
    score_variables,
    split_dataset,
)
from .selection import (
    CommonChoice,
    FeatureSelectionResult,
    clcd_fs,
    delabel_pc,
    select_common,
)
from .special import chi2_sf, gammainc_upper
from .synth import (
    BayesNet,
    DsepTester,
    GenConfig,
    GroundTruth,
    children_map,
    dsep_oracle,
    exact_cmi,
    exact_joint,
    generate,
    graphical_mb,
    inject_equivalence,
    random_net,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BayesNet",
    "BrNbModel",
    "CiConfig",
    "CiResult",
    "ClcdOutput",
    "CommonChoice",
    "Dataset",
    "DsepTester",
    "EquivalencePair",
    "FeatureSelectionResult",
    "G2Tester",
    "GenConfig",
    "GroundTruth",
    "LocalStructure",
    "ThetaMatch",
    "ThetaWitness",
    "VariableScores",
    "br_nb_predict",
    "br_nb_train",
    "chi2_sf",
    "children_map",
    "clcd",
    "clcd_fs",
    "cond_mutual_information",
    "contains_equivalent_info",
    "delabel_pc",
    "dsep_oracle",
    "evaluate_theta",
    "exact_cmi",
    "exact_joint",
    "f_scores",
    "find_equivalences",
    "g2_test",
    "gammainc_upper",
    "generate",
    "graphical_mb",
    "hamming_loss",
    "hiton_mb",
    "hiton_pc",
    "iamb",
    "inject_equivalence",
    "intersection_common",
    "label_matrix",
    "load_dataset",
    "phase1_structures",
    "phase2_retrieve",
    "phase3_equivalences",
    "random_net",
    "ranking_loss_detail",
    "render_benchmark_csv",
    "run_algorithm",
    "run_benchmark",
    "sample",
    "score_variables",
    "select_common",
    "set_ci",
    "split_dataset",
    "theta_candidates",
    "__version__",
]
