"""The fused C XOR kernel, built once and loaded through ctypes.

``xor_kernel.c`` (beside this module) runs a compiled plan's fused runs
over every stripe of a grid or disk-order batch in one call. At import
it is compiled with the system C compiler (``-O3 -shared -fPIC``, no
host-specific flags) into this package's ``__pycache__``, named by a
hash of the source, the compiler and the flags, so later imports only
load it: building at import keeps the one-time compile out of every
timed region that follows. ctypes releases the GIL for every call.

Without a compiler, or when the build or load fails, :data:`XOR_PLAN`
is ``None`` and :class:`~repro.bitmatrix.plan.CompiledPlan` runs its
numpy executor instead; that executor is also the kernel's oracle.
Tests force the fallback by setting :data:`XOR_PLAN` to ``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["TILE_BYTES", "XOR_PLAN", "build", "load"]

SOURCE = Path(__file__).with_name("xor_kernel.c")
FLAGS = ("-O3", "-shared", "-fPIC")

#: Column tile the kernel sweeps each stripe in: one tile of every row
#: a TIP n=8 plan touches (48 grid rows plus workspace) stays in a
#: per-core L2, and a 4 KiB chunk is one tile.
TILE_BYTES = 4096


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return os.path.realpath(found)
    return None


def build() -> Path | None:
    """The compiled kernel's path, compiling it on first use; ``None``
    without a compiler or when the build fails.

    The cache key hashes the source, the compiler's resolved path, size
    and modification time, and the flags. The library is written to a
    temporary name and renamed into place, so concurrent builders never
    load a half-written file.
    """
    compiler = _compiler()
    if compiler is None:
        return None
    stat = os.stat(compiler)
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(f"{compiler}:{stat.st_size}:{stat.st_mtime_ns}:{FLAGS}".encode())
    name = f"xor_kernel-{digest.hexdigest()[:16]}.so"
    target = SOURCE.parent / "__pycache__" / name
    if target.exists():
        return target
    try:
        target.parent.mkdir(exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    except OSError:
        return None
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", partial, str(SOURCE)],
            check=True, capture_output=True,
        )
        os.replace(partial, target)
    except (OSError, subprocess.CalledProcessError):
        if os.path.exists(partial):
            os.unlink(partial)
        return None
    return target


def load():
    """The kernel's ctypes function with its signature declared, or
    ``None`` when it cannot be built or loaded."""
    path = build()
    if path is None:
        return None
    try:
        function = ctypes.CDLL(str(path)).xor_plan
    except (OSError, AttributeError):
        return None
    # xor_plan(prog, table, grid): the plan's program, its table for the
    # grid's shape (``CompiledPlan._table``) and the grid, by address.
    function.argtypes = [ctypes.c_void_p] * 3
    function.restype = ctypes.c_int
    return function


#: The loaded kernel, or ``None`` when the numpy executor runs instead.
XOR_PLAN = load()
