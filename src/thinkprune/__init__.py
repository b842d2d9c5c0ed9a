"""Self-summarization driven eviction of redundant reasoning tokens from KV caches."""

from .cache import (
    CacheBudget,
    KvCacheState,
    ProtectedRegions,
    enforce_budget,
)
from .engine import (
    DecodeConfig,
    ProbeRecord,
    RunRecord,
    decode_step,
    probe_cycle,
    requery_logits,
    run,
)
from .errors import (
    BudgetExceedsStep,
    BudgetInfeasible,
    EmptyReasoningRegion,
    InputFormatError,
    NonNormalizedRow,
    OffsetOutOfRange,
    ProbeLeak,
    ProtectedTokenEviction,
    PruneError,
    SequenceTooLong,
    UnknownToken,
)
from .model import TinyDecoder, TinyModelConfig, token_text, tokenize
from .policy import (
    EvictionBudget,
    EvictionPlan,
    H2OAccumulator,
    PolicyKind,
    StepAllocation,
    allocate,
    build_plan,
    h2o_scores,
    plan_h2o,
    plan_random,
    plan_streaming,
)
from .scoring import (
    AttentionDump,
    ProbeConfig,
    ScoreTensor,
    StepScores,
    aggregate_step_scores,
    default_probe,
    extract_token_scores,
)
from .trace import (
    MarkerSet,
    ReasoningTrace,
    Segmentation,
    Step,
    Token,
    default_marker_set,
    segment,
)

__version__ = "0.1.0"
