"""GF(2) bit-matrix linear algebra and XOR scheduling.

The TIP paper implements every compared code in the *bit matrix* framework
(Sec. IV): encoding multiplies a generator bit matrix by the data vector,
decoding solves the linear system defined by the parity-check matrix's
erased columns. This subpackage provides that machinery:

* :mod:`repro.bitmatrix.ops` — dense GF(2) matrices as numpy uint8 arrays
  with multiplication, inversion, rank and solving.
* :mod:`repro.bitmatrix.schedule` — *bit matrix scheduling* (Plank,
  FAST'08, the paper's [28] and Sec. IV-C1): turning a matrix-vector
  product into an XOR schedule that reuses intermediate results to lower
  the XOR count.
* :mod:`repro.bitmatrix.plan` — compiled execution: schedules lowered to
  flat zero-allocation plans (fused multi-source XOR runs, dead-code
  elimination, liveness-based workspace reuse) placed on a grid's cells,
  for the steady-state encode/decode/rebuild hot paths.
* :mod:`repro.bitmatrix.kernel` — the fused C kernel that runs a plan
  over every stripe of a grid or batch in one call, compiled at first
  import; the numpy executor is its fallback.
"""

from repro.bitmatrix.ops import (
    bm_mul,
    bm_mat_vec,
    bm_inv,
    bm_rank,
    bm_solve,
    bm_identity,
    bm_is_invertible,
)
from repro.bitmatrix.plan import CompiledPlan
from repro.bitmatrix.schedule import (
    XorSchedule,
    fuse_stages,
    naive_schedule,
    smart_schedule,
)

__all__ = [
    "CompiledPlan",
    "fuse_stages",
    "bm_mul",
    "bm_mat_vec",
    "bm_inv",
    "bm_rank",
    "bm_solve",
    "bm_identity",
    "bm_is_invertible",
    "XorSchedule",
    "naive_schedule",
    "smart_schedule",
]
