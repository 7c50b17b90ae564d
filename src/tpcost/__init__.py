"""Tensor-program latency prediction toolkit.

Pipeline: parse loop-nest IR -> compact-AST features with positional
encoding -> transformer cost model (hybrid loss, Box-Cox labels) ->
cross-domain fine-tuning with a CMD regularizer and KMeans task sampling ->
dataflow-graph replay for end-to-end model latency.
"""

from .errors import TpcostError
from .ir import ProgramAst, parse_program, print_program
from .features import (CompactAst, DeviceSpec, EncodedInput,
                       build_compact_ast, encode_input, positional_encoding)
from .dataset import (BoxCoxNormalizer, Dataset, Sample, SynthOracleConfig,
                      fit_boxcox, generate_synthetic, load_dataset,
                      save_dataset, split_dataset, synth_latency)
from .costmodel import (CostModelConfig, CostModelParams, LatentBatch,
                        backward, cmd, desk_config, epsilon_diag, finetune,
                        forward, init_params, load_checkpoint, loss_finetune,
                        loss_pretrain, metrics, predict, save_checkpoint,
                        train, tune)
from .sampling import ClusterModel, TaskFeatureSet, kmeans, select_tasks
from .replayer import (Dfg, DfgNode, SimResult, dedup_predict,
                       expand_device_parallel, replay_model, simulate)

__version__ = "0.1.0"
