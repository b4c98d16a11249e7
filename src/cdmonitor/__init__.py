"""Binary RBMs trained with contrastive divergence, instrumented with
partition-free stopping diagnostics, reconstruction probability, and
brute-force exact log-likelihood."""

from .criteria import (
    MetricsRecord,
    XiVariant,
    log_partition,
)
from .datasets import (
    Dataset,
    generate_bars_and_stripes,
    generate_labeled_shifter,
    write_dataset,
)
from .experiment import (
    ExperimentConfig,
    RunResult,
    average_runs,
    default_config,
    detect_peak,
    generate_samples,
    run_experiment,
)
from .rbm import (
    GibbsChain,
    RbmParams,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    sample_bernoulli,
    visible_conditional_mean,
)
from .training import (
    RunBatch,
    TrainingConfig,
    apply_update,
    init_params,
    train_epoch,
)

__version__ = "0.1.0"
