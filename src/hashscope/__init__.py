"""Batch analytics for hashtag-annotated post corpora."""

import os

# One BLAS thread, fixed before numpy is first imported: OpenBLAS reads this
# when it loads.  No product on the CLI's path gains from BLAS threads, a
# threaded SVD or dot product gives different last bits than a serial one, so
# --strict output would depend on the thread count, and `hashscope all` forks
# a worker, which is safest with no native threads alive.  It overrides any
# setting the caller made.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .embedding import TrainConfig
from .synth import SyntheticSpec, generate_synthetic

__all__ = ["SyntheticSpec", "generate_synthetic", "TrainConfig", "__version__"]
