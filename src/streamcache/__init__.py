"""Streaming token-cache engine and benchmark simulator.

Core pieces: an interleaved FIFO cache mixing visual and text tokens, an
incremental attention engine with exact flop accounting, an online
verbalizer with a dedup window, a cross-attention connector with box-query
losses, and a synthetic-stream harness comparing caching strategies.
"""

__version__ = "0.1.0"

from .attention import (AttentionEngine, AttentionWeights, append_flop_cost,
                        full_recompute, init_weights, recompute_flop_cost)
from .cache import CacheEvent, CacheStructureError, InterleavedCache
from .config import ConfigError, SimConfig, config_from_dict, load_config
from .connector import (BOS_ID, CaptionDecoder, Scene, TrainingDivergence, TrainResult,
                        giou, giou_batch, grad_check, hungarian_match, init_caption_decoder,
                        init_connector, load_scene, loss_lm, loss_total, make_scene,
                        stage1_losses, stage1_value_and_grads, train_toy)
from .harness import (GrowthFit, OraclePredictor, StrategyAbort, StrategyKind,
                      StrategyTrace, SyntheticStream, fit_growth, generate_stream,
                      run_strategy, spike_ratio)
from .types import BBox, Token, TokenFactory, TokenKind
from .verbalize import (EmbeddingTable, TokenBudgetReport, Verbalizer, budget_report,
                        should_verbalize, step_text_vocab_ids)
