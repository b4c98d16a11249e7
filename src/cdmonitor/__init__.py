"""Binary RBMs trained with contrastive divergence, instrumented with
partition-free stopping diagnostics, reconstruction probability, and
brute-force exact log-likelihood."""
