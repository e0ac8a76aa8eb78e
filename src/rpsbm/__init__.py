"""Spectral density estimation for corpora of large graphs.

Fits a generative law over simple graphs from an observed corpus by aligning
the first two moments of the top adjacency eigenvalues (the spectral proxies
of the sample Frechet mean and total Frechet variance) with those of a
random-parameter stochastic block model, parametrically or as a graph-space
kernel mixture, and samples new graphs from the fitted law.
"""

__version__ = "0.4.0"

from .spectral import (
    Graph,
    SpectralSignature,
    density,
    dist_truncated,
    load_edgelist,
    save_edgelist,
    spectrum,
)
from .models import (
    BetaProductLaw,
    DiracLaw,
    RpsbmModel,
    SbmParams,
    UniformProductLaw,
    iter_corpus,
    load_model,
    sample_corpus,
    sample_rpsbm,
    sample_sbm,
)
from .theory import (
    EigLawMoments,
    eigenvalue_covariance,
    expected_spectrum,
    limiting_covariance,
    predict_eig_law_moments,
)
from .moments import (
    RegimeReport,
    SampleMoments,
    classify_regimes,
    compute_moments,
)
from .fitting import (
    FitResult,
    GraphMixture,
    InfeasibleFitError,
    critical_sample_size,
    fit_beta_product,
    fit_nonparametric,
    fit_parametric,
    run_er_mixture_pipeline,
    sample_mixture,
    silverman_bandwidth,
)
from .geometry import cluster_by_community_count, detect_geometry
from .contacts import ContactStream, load_contacts, window_contacts
