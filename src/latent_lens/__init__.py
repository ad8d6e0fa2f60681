"""latent-lens: a small melody VAE and the machinery to dissect its latent
space into music and noise neurons."""

from .melody import (
    HOLD,
    REST,
    VOCAB_SIZE,
    InvalidMelody,
    InvalidTokenSequence,
    Melody,
    NoteSpan,
    TokenSequence,
    detokenize,
    load_corpus,
    save_corpus,
    tokenize,
)
from .midi import ExtractionConfig, MidiFile, MidiParseError, extract_melodies, parse_midi, write_midi
from .corpus import (
    RandomSeqConfig,
    SyntheticConfig,
    gen_musical_corpus,
    gen_musical_melody,
    gen_random_corpus,
    gen_random_sequence,
)
from .features import FEATURE_NAMES, FeatureVector, extract_corpus_features, extract_features
from .stats import (
    BoxplotSummary,
    DegenerateBinningError,
    boxplot_summary,
    bvn_cell_probs,
    chi2,
    contingency,
    lowess,
    phik,
    phik_matrix,
)
from .vae import (
    CheckpointError,
    ModelConfig,
    NumericalError,
    Params,
    ShapeError,
    TrainConfig,
    TrainingDiverged,
    TrainState,
    decode,
    elbo_loss,
    elbo_loss_and_grads,
    encode,
    encode_batch,
    gaussian_kl,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .analysis import (
    LatentMatrix,
    NeuronPartition,
    Report,
    TooFewMelodies,
    activation_counts,
    build_report,
    compare_real_vs_random,
    encode_corpus,
    mu_pearson_matrix,
    neuron_feature_phik,
    neuron_feature_scatter,
    partition_neurons,
)

__version__ = "0.1.0"
