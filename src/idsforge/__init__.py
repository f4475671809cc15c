"""Feature selection and heterogeneous tree ensembles for intrusion detection data."""

__version__ = "0.1.0"

from .dataset import (Dataset, FeatureMeta, FoldAssignment, PreprocessReport,
                      RawTable, encode, encode_scaled, filter_table, load_csv, normalize,
                      read_dataset_artifact, select_features, stratified_folds,
                      write_dataset_artifact)
from .ensemble import (CombinationRule, CombineResult, VoteEnsemble, combine,
                       ensemble_predict, ensemble_predict_batch)
from .errors import InputError
from .evaluation import (ClassifierSpec, ConfusionMatrix, CrossValResult,
                         MetricsReport, compute_metrics,
                         confusion_from_predictions, cross_validate)
from .featsel import (BatSwarmConfig, CorrelationCache, FeatureSubset,
                      SelectionTrace, binarize, build_correlation_cache,
                      cfs_ba_select, cfs_merit, ig_rank, igr_rank, local_walk)
from .stats import (FriedmanResult, NemenyiResult, RankTable,
                    f_distribution_sf, friedman_from_mean_ranks, friedman_test,
                    load_metric_table, nemenyi_cd, rank_algorithms,
                    regularized_incomplete_beta)
from .trees import (AttributeWeights, DecisionTree, Forest, TreeParams,
                    c45_fit, entropy, forest_pa_fit, load_model,
                    model_from_doc, model_to_doc, rf_fit, save_model,
                    weight_increment, weight_range)
