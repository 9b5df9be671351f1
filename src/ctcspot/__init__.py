"""CTC word spotting with context biasing.

Spot user-supplied words in CTC log-prob matrices via a prefix-trie search,
then splice the confident detections into greedy CTC or transducer
transcripts.  See README.md for the pipeline and file formats.
"""

from .align import (
    AlignedWord,
    WordAlignment,
    greedy_ctc_align,
    load_transducer_alignment,
)
from .alts import (
    WordCostDictionary,
    abbreviation_variant,
    compound_split,
    expand_entries,
    load_context_list,
    load_wordlist,
)
from .core import (
    BOUNDARY_MARKER,
    LogProbMatrix,
    SpotterConfig,
    UtteranceRecord,
    Vocabulary,
    load_logprobs,
    load_manifest,
    load_vocabulary,
    write_logprobs,
)
from .errors import (
    DataError,
    DimensionMismatchError,
    DuplicateTokenError,
    FormatError,
    InvalidValueError,
    OverlappingWordsError,
    UnsegmentableError,
    VocabularyMismatchError,
)
from .graph import (
    BiasingEntry,
    ContextGraph,
    build_graph,
    load_graph,
    save_graph,
    tokenize,
    vocab_fingerprint,
)
from .merge import MergeDecision, MergeResult, decode_utterance, merge_ctc, merge_transducer
from .metrics import (
    EditOp,
    EvalReport,
    align_words,
    edit_distance,
    evaluate,
    fscore,
    fuse_phrases,
    mine_biasing_list,
    score_context_words,
    wer,
)
from .spotter import SpottedCandidate, find_best_hyps, spot

__version__ = "0.1.0"

__all__ = [
    "AlignedWord",
    "BOUNDARY_MARKER",
    "BiasingEntry",
    "ContextGraph",
    "DataError",
    "DimensionMismatchError",
    "DuplicateTokenError",
    "EditOp",
    "EvalReport",
    "FormatError",
    "InvalidValueError",
    "LogProbMatrix",
    "MergeDecision",
    "MergeResult",
    "OverlappingWordsError",
    "SpottedCandidate",
    "SpotterConfig",
    "UnsegmentableError",
    "UtteranceRecord",
    "Vocabulary",
    "VocabularyMismatchError",
    "WordAlignment",
    "WordCostDictionary",
    "abbreviation_variant",
    "align_words",
    "build_graph",
    "compound_split",
    "decode_utterance",
    "edit_distance",
    "evaluate",
    "expand_entries",
    "find_best_hyps",
    "fscore",
    "fuse_phrases",
    "greedy_ctc_align",
    "load_context_list",
    "load_graph",
    "load_logprobs",
    "load_manifest",
    "load_transducer_alignment",
    "load_vocabulary",
    "load_wordlist",
    "merge_ctc",
    "merge_transducer",
    "mine_biasing_list",
    "save_graph",
    "score_context_words",
    "spot",
    "tokenize",
    "vocab_fingerprint",
    "wer",
    "write_logprobs",
]
