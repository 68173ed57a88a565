"""Descriptor-learning laboratory with adaptive hard-positive sampling."""

from .config import EvalOptions, RunConfig, load_run_config, substream_seed
from .data import (ClassGroup, DatasetSpec, generate_positives,
                   generate_synthetic, read_dataset, write_dataset)
from .evaluation import (EvalReport, fpr_at_recall, info_correlation_probe,
                         mann_whitney_u, pearson, retrieval_map)
from .metricspace import MetricKind, distance_grad, paired_distance_grads, \
    paired_distances, pairwise_distances
from .miner import (MinedTriplet, MinedTriplets, NegMode, NegSource,
                    hardest_negatives, loss_grads, mine_triplets,
                    triplet_grads, triplet_loss)
from .sampler import (LossTracker, SamplerConfig, adaptive_exponent,
                      categorical_sample, expected_rectification,
                      optimal_probs, positive_probs, reweights,
                      trace_variance, unbiased_weights, update_loss_avg)
from .tensornet import (Activation, ForwardCache, GradEstimate, ModelParams,
                        backward, forward, group_grad_norms, init_params,
                        read_params, write_params)
from .trainer import TrainConfig, TrainState, build_batch, train, train_step

__version__ = "0.1.0"
