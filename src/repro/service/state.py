"""Versioned snapshot/restore of the full alignment state.

A long-running ``repro serve`` process must survive restarts without a
cold realignment, so the complete state — both ontologies, the config,
the instance-equivalence store and the relation/class matrices — is
pickled to a *state directory*:

* ``state-00000042.pkl`` — one file per version (version 0 is the cold
  run, each applied delta bumps it);
* ``LATEST`` — a one-line pointer to the newest version, written last,
  so a crash mid-snapshot never corrupts the resumable state.

Both are fsync'd before their rename and the directory after it: a
primary deletes the WAL segments a published snapshot covers.

Everything in the state is plain dictionaries over the slotted term
types, which pickle via their ``__reduce__``.  Derived structures
(functionality oracles, literal indexes, incremental relation caches,
the restricted-view maintainer and the class-row caches) are *not*
stored; :class:`repro.service.engine.AlignmentService` rebuilds them
deterministically at attach time.  The warm fixpoint's copy-on-write
:class:`~repro.core.store.OverlayStore` never outlives a pass — it is
committed into the base store before the result escapes — but
:func:`save_state` collapses one defensively rather than pickling a
view object whose base could drift after restore.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.config import ParisConfig
from ..core.matrix import SubsumptionMatrix
from ..core.result import AlignmentResult
from ..core.store import EquivalenceStore, OverlayStore
from ..rdf.ontology import Ontology

#: On-disk format version; bump on incompatible layout changes.
STATE_FORMAT = 1

#: Name of the newest-version pointer file.
LATEST_MARKER = "LATEST"


@dataclass
class AlignmentState:
    """Everything needed to serve queries and warm-start the fixpoint."""

    version: int
    ontology1: Ontology
    ontology2: Ontology
    config: ParisConfig
    store: EquivalenceStore
    relations12: SubsumptionMatrix
    relations21: SubsumptionMatrix
    classes12: SubsumptionMatrix
    classes21: SubsumptionMatrix
    converged: bool
    #: Offset of the last write-ahead-log record this state absorbed
    #: (see :mod:`repro.service.stream.wal`; 0 = none).  A snapshot
    #: carrying this lets a restart replay exactly the un-snapshotted
    #: WAL suffix: records ``wal_offset + 1 ..`` are reapplied, records
    #: at or below it are already inside the pickled stores.
    wal_offset: int = 0
    #: Order-insensitive 64-bit digest of the maximal assignment as of
    #: ``wal_offset`` (see :mod:`repro.obs.audit`).  ``None`` on
    #: snapshots written before digests existed; the engine recomputes
    #: at attach, and verifies bootstrap integrity when it is present.
    digest: Optional[int] = None

    def __setstate__(self, state: dict) -> None:
        # Snapshots pickled before the WAL existed restore without the
        # offset; default it instead of breaking resume.  Same story for
        # pre-digest snapshots: None means "recompute, nothing to check".
        self.__dict__.update(state)
        if "wal_offset" not in state:
            self.wal_offset = 0
        if "digest" not in state:
            self.digest = None

    @classmethod
    def from_result(
        cls,
        ontology1: Ontology,
        ontology2: Ontology,
        config: ParisConfig,
        result: AlignmentResult,
        version: int = 0,
    ) -> "AlignmentState":
        return cls(
            version=version,
            ontology1=ontology1,
            ontology2=ontology2,
            config=config,
            store=result.instances,
            relations12=result.relations12,
            relations21=result.relations21,
            classes12=result.classes12,
            classes21=result.classes21,
            converged=result.converged,
        )

    def absorb(self, result: AlignmentResult) -> None:
        """Adopt a warm-align result and bump the version."""
        self.version += 1
        self.store = result.instances
        self.relations12 = result.relations12
        self.relations21 = result.relations21
        self.classes12 = result.classes12
        self.classes21 = result.classes21
        self.converged = result.converged


def _state_path(directory: Path, version: int) -> Path:
    return directory / f"state-{version:08d}.pkl"


def fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so a rename survives a crash (a
    platform that cannot open or fsync a directory is skipped)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def _publish(tmp: Path, path: Path, write) -> None:
    """Durable write-then-rename of what ``write(stream)`` puts in ``tmp``."""
    with tmp.open("wb") as stream:
        write(stream)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def save_state(state: AlignmentState, directory: Union[str, Path]) -> Path:
    """Snapshot a state into ``directory``; returns the file written."""
    if isinstance(state.store, OverlayStore):
        # Invariant: warm passes commit their overlay before the result
        # escapes, so this only fires on a misuse — collapse instead of
        # persisting a copy-on-write view of a store that keeps living.
        state.store = state.store.commit()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = _state_path(directory, state.version)
    # Write-then-rename: re-snapshotting an existing version (e.g. the
    # shutdown snapshot after a --snapshot-every save) must never leave
    # a truncated pickle behind the already-published LATEST pointer.
    _publish(
        path.with_suffix(".pkl.tmp"),
        path,
        lambda stream: pickle.dump({"format": STATE_FORMAT, "state": state}, stream),
    )
    # The pointer is published after the payload is durable, so no
    # reader (nor a restart after power loss) sees a LATEST that names
    # a half-written snapshot, or a truncated marker.
    _publish(
        directory / (LATEST_MARKER + ".tmp"),
        directory / LATEST_MARKER,
        lambda stream: stream.write(f"{state.version}\n".encode("utf-8")),
    )
    return path


def latest_version(directory: Union[str, Path]) -> Optional[int]:
    """Newest snapshot version in ``directory`` (None when empty).

    A malformed marker (e.g. left by an interrupted non-atomic writer
    of an older version) falls back to scanning the snapshot files, so
    resume never bricks on a bad pointer.
    """
    directory = Path(directory)
    marker = directory / LATEST_MARKER
    if marker.exists():
        try:
            return int(marker.read_text().strip())
        except ValueError:
            pass
    versions = sorted(directory.glob("state-*.pkl")) if directory.is_dir() else []
    if not versions:
        return None
    return int(versions[-1].stem.split("-")[1])


def load_state(
    directory: Union[str, Path], version: Optional[int] = None
) -> AlignmentState:
    """Load a snapshot (the newest one unless ``version`` is given)."""
    directory = Path(directory)
    if version is None:
        version = latest_version(directory)
        if version is None:
            raise FileNotFoundError(f"no alignment state under {directory}")
    path = _state_path(directory, version)
    return load_state_bytes(path.read_bytes(), origin=str(path))


def load_state_bytes(data: bytes, origin: str = "<bytes>") -> AlignmentState:
    """Decode a snapshot payload (one ``state-*.pkl`` file's bytes).

    The replica bootstrap path: a replica without shared storage
    fetches the primary's newest snapshot over ``GET /snapshot/latest``
    and decodes it here — same format checks as :func:`load_state`.
    Pickle is only safe within a trusted cluster; the replication
    endpoints assume primary and replicas share an operator.
    """
    payload = pickle.loads(data)
    if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT:
        raise ValueError(f"{origin} is not a format-{STATE_FORMAT} alignment state")
    state = payload["state"]
    if not isinstance(state, AlignmentState):
        raise ValueError(f"{origin} does not contain an AlignmentState")
    return state


def snapshot_path(directory: Union[str, Path]) -> Optional[Path]:
    """Path of the newest snapshot file (None when the dir is empty)."""
    directory = Path(directory)
    version = latest_version(directory)
    if version is None:
        return None
    path = _state_path(directory, version)
    return path if path.exists() else None
