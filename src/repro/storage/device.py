"""Page devices: file-backed block storage (paper §2–3, §5).

A :class:`PageDevice` owns one file of ``NumberOfPages × PageSize``
bytes and reads/writes whole pages at integer addresses.  Created on a
remote machine (``cluster.on(k).new(PageDevice, ...)``) it is
exactly the paper's storage process.

Simulated-disk integration: every physical transfer also reports its
size to the ambient cost hooks (:mod:`repro.runtime.context`).  Under
the real backends the hooks are no-ops and the file I/O provides the
real cost; under the ``sim`` backend the hooks queue the transfer on
the device's simulated disk — using the page's *nominal* size when the
device is constructed with ``nominal_page_size``, which is how a
laptop-sized file stands in for a petascale drive.

:class:`ArrayPageDevice` derives the structured-block device of §3,
adds the at-the-data reductions, the region I/O the distributed Array
needs, and the §5 adoption constructor
(``ArrayPageDevice(page_device)``).
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Optional, Union

import numpy as np

from ..errors import PageIndexError, PageSizeError, StorageError
from ..runtime.context import current_hooks
from ..runtime.proxy import Proxy, remote_getattr
from ..util.ids import fresh_token
from .domain import Domain
from .page import DOUBLE, ArrayPage, Page


def default_storage_dir() -> str:
    """Directory for device files with relative names.

    Per-process (so each mp machine gets its own "disk"), overridable
    with ``$OOPP_STORAGE_DIR``.
    """
    root = os.environ.get("OOPP_STORAGE_DIR")
    if root is None:
        root = os.path.join(tempfile.gettempdir(), f"oopp-store-{os.getpid()}")
    os.makedirs(root, exist_ok=True)
    return root


class PageDevice:
    """A block storage device: ``NumberOfPages`` pages of ``PageSize`` bytes.

    Parameters mirror the paper's constructor.  Extra keyword-only
    parameters:

    nominal_page_size:
        If set, the simulator charges disks/network for pages of this
        many bytes instead of the real ``PageSize`` (the file still
        holds real pages).
    disk_key:
        Name of the simulated disk this device queues on.  Defaults to
        a fresh name per device — the paper's "each ArrayPageDevice
        should be assigned to a different hard disk".  Pass a shared
        key to model devices contending for one spindle (experiment E8
        ablation).
    """

    #: page reads are safe to re-send after an ambiguous transport
    #: failure (chaos layer: see Config.retry).  The ``reads``
    #: counter drifts on a duplicated read — diagnostics, not state.
    __oopp_idempotent__ = frozenset({
        "read", "read_into", "read_page", "read_region", "describe",
        "io_stats", "sum", "reduce_region", "dot_pages",
    })

    def __init__(self, filename: str, NumberOfPages: int, PageSize: int, *,
                 nominal_page_size: Optional[int] = None,
                 disk_key: Optional[str] = None) -> None:
        if NumberOfPages < 0:
            raise StorageError(f"NumberOfPages must be >= 0, got {NumberOfPages}")
        if PageSize <= 0:
            raise StorageError(f"PageSize must be > 0, got {PageSize}")
        if nominal_page_size is not None and nominal_page_size < PageSize:
            raise StorageError("nominal_page_size cannot be below PageSize")
        self.filename = filename
        self.NumberOfPages = NumberOfPages
        self.PageSize = PageSize
        self.nominal_page_size = nominal_page_size
        self.disk_key = disk_key or fresh_token("disk")
        self.reads = 0
        self.writes = 0
        self._io_lock = threading.Lock()
        self._open_file()

    # -- file management ---------------------------------------------------

    @property
    def path(self) -> str:
        if os.path.isabs(self.filename):
            return self.filename
        return os.path.join(default_storage_dir(), self.filename)

    def _open_file(self) -> None:
        path = self.path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # Open r+b, creating and sizing on first use; an existing file is
        # adopted as-is (persistent processes reopen their data).
        if not os.path.exists(path):
            with open(path, "wb") as f:
                f.truncate(self.NumberOfPages * self.PageSize)
        self._file = open(path, "r+b")
        size = os.path.getsize(path)
        wanted = self.NumberOfPages * self.PageSize
        if size < wanted:
            self._file.truncate(wanted)

    def _check_index(self, page_index: int) -> int:
        if not (0 <= page_index < self.NumberOfPages):
            raise PageIndexError(
                f"page index {page_index} outside [0, {self.NumberOfPages})")
        return page_index

    def _charged_size(self) -> int:
        return (self.nominal_page_size if self.nominal_page_size is not None
                else self.PageSize)

    # -- the paper's interface ------------------------------------------------

    def write(self, page: Page, PageIndex: int) -> None:
        """Store *page* at the given address."""
        self._check_index(PageIndex)
        data = page.to_bytes()
        if len(data) != self.PageSize:
            raise PageSizeError(
                f"device pages are {self.PageSize} bytes, got {len(data)}")
        current_hooks().charge_disk_write(self.disk_key, self._charged_size())
        with self._io_lock:
            self._file.seek(PageIndex * self.PageSize)
            self._file.write(data)
            self._file.flush()
            self.writes += 1

    def read(self, PageIndex: int) -> Page:
        """Fetch the page at the given address.

        The paper's signature fills a caller-provided ``Page*``; in
        Python the page is the return value (it crosses the network as
        the response payload either way).
        """
        self._check_index(PageIndex)
        current_hooks().charge_disk_read(self.disk_key, self._charged_size())
        with self._io_lock:
            self._file.seek(PageIndex * self.PageSize)
            data = self._file.read(self.PageSize)
            self.reads += 1
        page = Page(self.PageSize, data)
        if self.nominal_page_size is not None:
            page.with_nominal_size(self.nominal_page_size)
        return page

    def read_into(self, page: Page, PageIndex: int) -> None:
        """Closest form to the paper's out-parameter read."""
        fetched = self.read(PageIndex)
        page.update(fetched.to_bytes())

    # -- introspection ------------------------------------------------------------

    def describe(self) -> dict:
        """Device parameters, for adoption constructors and diagnostics."""
        return {
            "filename": self.filename,
            "NumberOfPages": self.NumberOfPages,
            "PageSize": self.PageSize,
            "nominal_page_size": self.nominal_page_size,
            "disk_key": self.disk_key,
        }

    def io_stats(self) -> dict:
        return {"reads": self.reads, "writes": self.writes}

    # -- lifecycle (destructor semantics, §2/§5) -------------------------------------

    def oopp_destructor(self) -> None:
        """Runs when the hosting process is destroyed; data file remains."""
        self.close()

    def close(self) -> None:
        f = getattr(self, "_file", None)
        if f is not None and not f.closed:
            f.close()

    def delete_backing_file(self) -> None:
        """Explicitly remove the data file (tests / true deletion)."""
        self.close()
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass

    # -- persistence -------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "filename": self.filename,
            "NumberOfPages": self.NumberOfPages,
            "PageSize": self.PageSize,
            "nominal_page_size": self.nominal_page_size,
            "disk_key": self.disk_key,
            "reads": self.reads,
            "writes": self.writes,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._io_lock = threading.Lock()
        self._open_file()  # re-acquire the OS resource on activation


DeviceLike = Union[PageDevice, Proxy]


def _device_description(device: DeviceLike) -> dict:
    """Describe a device whether it is local or behind a proxy."""
    if isinstance(device, Proxy):
        return device.describe()
    return device.describe()


class ArrayPageDevice(PageDevice):
    """A device storing ``n1 × n2 × n3`` blocks of doubles (paper §3).

    Construction forms::

        ArrayPageDevice("file", NumberOfPages, n1, n2, n3)   # as in §3
        ArrayPageDevice(existing_device, n1, n2, n3)         # adoption, §5

    The adoption form accepts a local :class:`PageDevice` or a proxy to
    one *on the same machine*: the new device opens the same backing
    file, reinterpreting its pages as structured blocks.  The paper uses
    this to derive a structured view of an existing persistent process,
    which may then co-exist with it or replace it.
    """

    def __init__(self, source, NumberOfPages: Optional[int] = None,
                 n1: int = 0, n2: int = 0, n3: int = 0, **kwargs) -> None:
        if isinstance(source, (PageDevice, Proxy)):
            # Adoption form: ArrayPageDevice(device, n1, n2, n3) — the
            # positional slots shift left by one relative to the string
            # form, exactly mirroring the paper's overloaded constructor.
            a1 = NumberOfPages if NumberOfPages is not None else 0
            a1, a2, a3 = int(a1), int(n1), int(n2)
            desc = _device_description(source)
            block_bytes = a1 * a2 * a3 * DOUBLE.itemsize
            if min(a1, a2, a3) <= 0:
                raise StorageError(
                    "adoption form is ArrayPageDevice(device, n1, n2, n3) "
                    f"with positive block shape, got ({a1},{a2},{a3})")
            if desc["PageSize"] != block_bytes:
                raise PageSizeError(
                    f"device pages are {desc['PageSize']} bytes; blocks "
                    f"({a1},{a2},{a3}) need {block_bytes}")
            kwargs.setdefault("nominal_page_size", desc["nominal_page_size"])
            kwargs.setdefault("disk_key", desc["disk_key"])
            source, NumberOfPages = desc["filename"], desc["NumberOfPages"]
            n1, n2, n3 = a1, a2, a3
        if min(n1, n2, n3) <= 0:
            raise StorageError(
                f"block shape must be positive, got ({n1},{n2},{n3})")
        page_size = n1 * n2 * n3 * DOUBLE.itemsize
        super().__init__(source, NumberOfPages, page_size, **kwargs)
        self.n1, self.n2, self.n3 = n1, n2, n3

    @classmethod
    def adopt(cls, device: DeviceLike, n1: int, n2: int, n3: int,
              **kwargs) -> "ArrayPageDevice":
        """Alias for the §5 adoption constructor with explicit naming."""
        return cls(device, n1, n2, n3, **kwargs)

    # -- structured reads/writes ----------------------------------------------

    @property
    def block_shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    def read_page(self, PageIndex: int) -> ArrayPage:
        raw = super().read(PageIndex)
        page = ArrayPage(self.n1, self.n2, self.n3)
        page.update(raw.to_bytes())
        if self.nominal_page_size is not None:
            page.with_nominal_size(self.nominal_page_size)
        return page

    def write_page(self, page: ArrayPage, PageIndex: int) -> None:
        if page.shape != self.block_shape:
            raise PageSizeError(
                f"device blocks are {self.block_shape}, got {page.shape}")
        super().write(page, PageIndex)

    # -- at-the-data computations (the point of §3) ------------------------------

    def sum(self, PageAddress: int) -> float:
        """Sum of all elements of one page, computed on this machine."""
        return self.read_page(PageAddress).sum()

    def reduce_region(self, PageIndex: int, lo: tuple[int, int, int],
                      hi: tuple[int, int, int], op: str = "sum") -> float:
        """Reduce a sub-box (page-local coordinates) of one page."""
        region = self._region_view(PageIndex, lo, hi)
        if op == "sum":
            return float(region.sum())
        if op == "min":
            return float(region.min())
        if op == "max":
            return float(region.max())
        if op == "sumsq":
            return float(np.square(region).sum())
        raise StorageError(f"unknown reduction {op!r}")

    def read_region(self, PageIndex: int, lo: tuple[int, int, int],
                    hi: tuple[int, int, int]) -> np.ndarray:
        """Copy out a sub-box of one page (page-local coordinates)."""
        return self._region_view(PageIndex, lo, hi).copy()

    def write_region(self, PageIndex: int, lo: tuple[int, int, int],
                     hi: tuple[int, int, int], values: np.ndarray) -> None:
        """Read-modify-write a sub-box of one page."""
        self._check_region(lo, hi)
        page = self.read_page(PageIndex)
        view = page.array[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
        values = np.asarray(values, dtype=DOUBLE)
        if values.shape != view.shape:
            raise PageSizeError(
                f"region {lo}..{hi} has shape {view.shape}, got {values.shape}")
        view[...] = values
        self.write_page(page, PageIndex)

    def fill_region(self, PageIndex: int, lo: tuple[int, int, int],
                    hi: tuple[int, int, int], value: float) -> None:
        self._check_region(lo, hi)
        page = self.read_page(PageIndex)
        page.array[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = value
        self.write_page(page, PageIndex)

    # -- page-local linear algebra (close-to-the-data operations) ----------------

    def copy_page(self, src_index: int, dst_index: int) -> None:
        """Duplicate a page within this device (no network traffic)."""
        self.write_page(self.read_page(src_index), dst_index)

    def scale_page(self, alpha: float, PageIndex: int) -> None:
        """``page *= alpha`` computed on this machine."""
        page = self.read_page(PageIndex)
        page.scale(alpha)
        self.write_page(page, PageIndex)

    def axpy_page(self, alpha: float, src_index: int, dst_index: int) -> None:
        """``dst += alpha * src`` between two pages of this device."""
        src = self.read_page(src_index)
        dst = self.read_page(dst_index)
        dst.array[...] += alpha * src.array
        self.write_page(dst, dst_index)

    def dot_pages(self, a_index: int, b_index: int) -> float:
        """Inner product of two pages, only the scalar leaves the machine."""
        a = self.read_page(a_index)
        b = self.read_page(b_index)
        return float(np.vdot(a.array, b.array).real)

    def apply_page(self, func: tuple[str, str], PageIndex: int,
                   *extra_args) -> None:
        """Transform a page in place with a shipped function.

        *func* is a ``(module, qualname)`` spec of a module-level
        function taking the ``(n1, n2, n3)`` array (plus any
        *extra_args*) and returning the transformed array — arbitrary
        elementwise math executed at the data.
        """
        from ..apps.funcspec import resolve_func

        fn = resolve_func(func)
        page = self.read_page(PageIndex)
        result = np.asarray(fn(page.array.copy(), *extra_args), dtype=DOUBLE)
        if result.shape != page.array.shape:
            raise PageSizeError(
                f"page function changed shape {page.array.shape} -> "
                f"{result.shape}")
        page.array[...] = result
        self.write_page(page, PageIndex)

    def _check_region(self, lo, hi) -> None:
        block = Domain.from_shape(self.block_shape)
        region = Domain.from_bounds(tuple(lo), tuple(hi))
        if not block.contains(region):
            raise PageIndexError(
                f"region {lo}..{hi} outside block {self.block_shape}")

    def _region_view(self, PageIndex: int, lo, hi) -> np.ndarray:
        self._check_region(lo, hi)
        page = self.read_page(PageIndex)
        return page.array[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]

    # -- persistence --------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["block_shape"] = (self.n1, self.n2, self.n3)
        return state

    def __setstate__(self, state: dict) -> None:
        shape = state.pop("block_shape")
        super().__setstate__(state)
        self.n1, self.n2, self.n3 = shape
