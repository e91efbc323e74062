"""Multi-aspect diversity metrics and diversification for news lists."""

from .aspect_model import (
    Aspect,
    AspectSchema,
    LabelGraph,
    load_schema,
)
from .corpus_io import (
    Corpus,
    load_corpus,
    load_history,
    load_interactions,
    load_rules,
    write_report,
)
from .diversify import (
    RerankResult,
    exclude_history,
    greedy_select,
    next_in_sequence,
    rerank_combined,
    select_summary_sources,
    suggest_interaction,
    swap_diversify,
)
from .errors import (
    ContractError,
    DerivationError,
    GuardExceededError,
    NewsdivError,
    ParseError,
    UnknownEntityError,
    ValidationError,
)
from .metrics import (
    DiversityReport,
    DocumentProfile,
    InteractionLog,
    InteractionRecord,
    Keyword,
    Window,
    collection_diversity,
    interaction_diversity,
    keyword_diversity,
)
from .oracle import OracleResult, max_diversity_oracle
from .rules import Rule, RuleSet, apply_rules, explain_result

__version__ = "0.1.0"

__all__ = [
    "Aspect",
    "AspectSchema",
    "Corpus",
    "ContractError",
    "DerivationError",
    "DiversityReport",
    "DocumentProfile",
    "GuardExceededError",
    "InteractionLog",
    "InteractionRecord",
    "Keyword",
    "LabelGraph",
    "NewsdivError",
    "OracleResult",
    "ParseError",
    "RerankResult",
    "Rule",
    "RuleSet",
    "UnknownEntityError",
    "ValidationError",
    "Window",
    "apply_rules",
    "collection_diversity",
    "exclude_history",
    "explain_result",
    "greedy_select",
    "interaction_diversity",
    "keyword_diversity",
    "load_corpus",
    "load_history",
    "load_interactions",
    "load_rules",
    "load_schema",
    "max_diversity_oracle",
    "next_in_sequence",
    "rerank_combined",
    "select_summary_sources",
    "suggest_interaction",
    "swap_diversify",
    "write_report",
]
