"""textmoe: a multi-task text classifier built on a small autodiff core.

Word embeddings are fused with trainable lexicon-marker embeddings, shared
attention expert units encode each sequence, per-task softmax gates mix the
experts, and task heads classify. Training alternates single-task batches
at a configurable sentiment:depression ratio.
"""

from .ablation import (
    ALL_VARIANTS,
    AblationVariant,
    DataBundle,
    build_model,
    ratio_sweep,
    run_ablation,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config, parse_ratio, write_run_config
from .data import (
    DEPRESSION,
    SENTIMENT,
    EmbeddingTable,
    Example,
    SynthData,
    TaskDataset,
    Vocabulary,
    build_vocab,
    load_csv_dataset,
    load_glove,
    synth_generate,
    tokenize,
)
from .errors import (
    ConfigError,
    DataError,
    Error,
    ParseError,
    ShapeError,
    TrainingDiverged,
    UsageError,
)
from .lexicon import (
    DEFAULT_MARKER_EMOTIONS,
    IN_LEXICON,
    NOT_IN_LEXICON,
    Lexicon,
    load_nrc_lexicon,
    load_plain_lexicon,
    mark_tokens,
)
from .metrics import MetricsReport, evaluate, metrics
from .model import (
    ExpertUnit,
    ModelConfig,
    MoeClassifier,
    attention,
    embed_with_markers,
    expert_forward,
    gate_weights,
)
from .optim import RmsProp
from .tensor import Tensor, no_grad
from .train import (
    TrainConfig,
    TrainingReport,
    compute_loss,
    fit,
    schedule_epoch,
)

__version__ = "0.1.0"
