"""Corpus-driven analogical mapping between term lists.

Given two lists of terms and a plain-text corpus, the package mines
pair-pattern co-occurrence statistics, smooths them into a latent
relation space, and searches all bijections between the lists for the
one whose pairwise relations line up best. Attributional baselines,
hybrid scoring, and coherence experiments ride on the same machinery.
"""

from .attributes import (CombinedSimilarity, PmiIrSimilarity, PosSimilarity,
                         TableSimilarity, load_external_similarity)
from .config import Config, load_config_file
from .corpus import (CorpusIndex, cached_index, cooccurrence_counts, corpus_files,
                     ingest, load_index, save_index)
from .dataset import Dataset, builtin_dataset, dump_problems, load_problems
from .errors import (BudgetError, ConfigError, CorpusError, DataError,
                     RelmapError, TransformError, UsageError)
from .evaluation import (CoherenceReport, Report, SweepReport, accuracy,
                         build_space_for_problems, coherence_experiment,
                         run_batch, sensitivity_sweep, solve_batch)
from .patterns import (PatternStats, build_frequency_matrix, build_pair_list,
                       mine_patterns, prune_rows, select_columns)
from .planted import PlantedConfig, PlantedData, generate_planted_corpus
from .problems import Mapping, MappingProblem
from .solver import (AttributionalScorer, HybridScorer, RelationalScorer,
                     SolveResult, solve, solve_constrained)
from .space import (RelationSpace, build_space, build_space_from_matrix,
                    transform_log_entropy, transform_ppmic, truncated_svd)
from .terms import Term, TermPair, tokenize

__version__ = "0.1.0"
