"""Multiversion store with VTNC visibility (Modular Synchronization).

RITU's multiversion variant (paper section 3.3) appends immutable
versions tagged with transaction numbers and controls visibility with a
**visible transaction number counter (VTNC)**: versions at or below the
VTNC are stable — "no smaller version can be created by any active or
future transaction" — so queries reading at the VTNC are serializable.
Queries may opt to read newer (unstable) versions at the cost of one
inconsistency unit per read, which is exactly what
:class:`repro.core.divergence.VTNCDC` accounts for.

Compensation support (paper section 4.2): a version can be superseded
"by adding another version with the same timestamp but bearing the
previous value", or deleted outright.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..core.transactions import TransactionID

__all__ = ["Version", "MultiVersionStore", "NoVisibleVersion"]


class NoVisibleVersion(LookupError):
    """Raised when a key has no version visible at the requested bound."""


@dataclass(frozen=True)
class Version:
    """One immutable version of an object.

    ``txn_number`` is the global transaction number of the writer;
    ``sequence`` disambiguates compensations installed at the same
    number (the later sequence wins).
    """

    txn_number: int
    value: Any
    writer: Optional[TransactionID] = None
    sequence: int = 0


class MultiVersionStore:
    """Append-only versioned store with VTNC visibility control."""

    def __init__(self) -> None:
        self._versions: Dict[str, List[Version]] = {}
        self._vtnc = 0
        self._sequence = 0

    # -- VTNC -----------------------------------------------------------------

    @property
    def vtnc(self) -> int:
        return self._vtnc

    def advance_vtnc(self, txn_number: int) -> None:
        """Raise the VTNC; refuses to move backwards."""
        if txn_number > self._vtnc:
            self._vtnc = txn_number

    # -- writes ----------------------------------------------------------------

    def install(
        self,
        key: str,
        value: Any,
        txn_number: int,
        writer: Optional[TransactionID] = None,
    ) -> Version:
        """Append a version of ``key`` produced by ``txn_number``.

        Installation order is free (RITU updates commute); versions are
        kept sorted by (txn_number, sequence) so reads can binary-search
        the visibility bound.
        """
        self._sequence += 1
        version = Version(txn_number, value, writer, self._sequence)
        versions = self._versions.setdefault(key, [])
        bisect.insort(
            versions, version, key=lambda v: (v.txn_number, v.sequence)
        )
        return version

    def compensate(
        self,
        key: str,
        txn_number: int,
        prior_value: Any,
        writer: Optional[TransactionID] = None,
    ) -> Version:
        """Install a compensation version at the same transaction number.

        Paper section 4.2: 'Multiple versions can support compensation
        by ... adding another version with the same timestamp but
        bearing the previous value.'  The higher sequence number makes
        the compensation shadow the compensated version.
        """
        return self.install(key, prior_value, txn_number, writer)

    def delete_version(self, key: str, txn_number: int) -> bool:
        """Delete the newest version of ``key`` at ``txn_number``.

        The alternative compensation strategy of section 4.2.  Returns
        True when a version was removed.
        """
        versions = self._versions.get(key, [])
        for i in range(len(versions) - 1, -1, -1):
            if versions[i].txn_number == txn_number:
                del versions[i]
                return True
        return False

    # -- reads -----------------------------------------------------------------

    def read_at(self, key: str, bound: int) -> Version:
        """Newest version with ``txn_number <= bound``.

        Raises :class:`NoVisibleVersion` when nothing qualifies.
        """
        versions = self._versions.get(key, [])
        best: Optional[Version] = None
        for version in versions:
            if version.txn_number <= bound:
                best = version  # sorted ascending; keep the last match
            else:
                break
        if best is None:
            raise NoVisibleVersion(key)
        return best

    def read_visible(self, key: str) -> Version:
        """Newest VTNC-visible (stable, SR) version."""
        return self.read_at(key, self._vtnc)

    def read_latest(self, key: str) -> Version:
        """Newest version regardless of visibility (may be unstable)."""
        versions = self._versions.get(key, [])
        if not versions:
            raise NoVisibleVersion(key)
        return versions[-1]

    def versions_of(self, key: str) -> List[Version]:
        return list(self._versions.get(key, ()))

    def unstable_versions(self, key: str) -> List[Version]:
        """Versions newer than the VTNC (inconsistency sources)."""
        return [
            v for v in self._versions.get(key, ()) if v.txn_number > self._vtnc
        ]

    def keys(self) -> Iterator[str]:
        return (k for k, v in self._versions.items() if v)

    def latest_values(self) -> Dict[str, Any]:
        """key -> newest value (for convergence comparison)."""
        return {key: self.read_latest(key).value for key in self.keys()}

    # -- persistence -----------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every version plus the VTNC.

        The live runtime's snapshot/checkpoint machinery persists this
        verbatim; :meth:`from_state` rebuilds an equivalent store
        (including the sequence counter, so compensations installed
        after a restore keep shadowing correctly).
        """
        return {
            "vtnc": self._vtnc,
            "sequence": self._sequence,
            "versions": {
                key: [
                    [v.txn_number, v.value, v.writer, v.sequence]
                    for v in versions
                ]
                for key, versions in self._versions.items()
                if versions
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MultiVersionStore":
        store = cls()
        store._vtnc = int(state.get("vtnc", 0))
        store._sequence = int(state.get("sequence", 0))
        for key, versions in dict(state.get("versions", {})).items():
            store._versions[key] = [
                Version(int(t), value, writer, int(seq))
                for t, value, writer, seq in versions
            ]
        return store
