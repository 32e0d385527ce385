"""Immutable, checksummed, versioned model store (``registry.json``).

A registry is a directory with one atomic state file and one immutable
subdirectory per registered model version::

    registry/
      registry.json          # atomic state: pointers, statuses, audit log
      versions/
        v1/  flux_cnn.npz  classifier.npz  manifest.json  flux_prior.json ...
        v2/  ...

Every file copied into a ``versions/<vN>/`` directory is pinned by its
SHA-256 at registration time; :meth:`ModelRegistry.verify` re-hashes the
directory and raises :class:`~repro.runtime.errors.CorruptArtifactError`
naming the *file* that drifted, so a bit-flipped or truncated version
can never be promoted or hot-loaded.  ``registry.json`` itself is only
ever replaced whole (:func:`~repro.runtime.checkpoint.atomic_write_json`),
which is what lets the serving daemon's version watcher poll it while
the CLI mutates it.

Version lifecycle (statuses)::

    registered --promote--> production --(a later promote)--> retired
                              |    ^                             |
                     rollback |    +---- rollback restores ------+
                              v
                         rolled_back   (promote refuses it without force)

``promote`` can be gated: ``repro models promote vN --gate DATASET``
scores a fixed dataset on production and on ``vN`` and passes the
verdict (:func:`~repro.registry.guard.gate_verdict`) in, which lands in
the promote's audit entry.  State files written before the gate existed
may hold a ``shadow`` status and a ``candidate`` pointer; they load as
``registered`` and without it, and the next write persists that.

Operational errors (unknown version, promoting a quarantined version
without ``force``, rolling back with no previous good version) raise
:class:`RegistryError`; the CLI maps it to exit code 2.  Integrity
failures raise :class:`CorruptArtifactError` (exit code 3).
"""

from __future__ import annotations

import json
import os
import shutil
import time

from ..runtime.checkpoint import atomic_write_json, file_sha256
from ..runtime.errors import CorruptArtifactError

__all__ = [
    "ModelRegistry",
    "RegistryError",
    "REGISTRY_FILE",
    "VERSIONS_DIR",
    "STATUS_REGISTERED",
    "STATUS_PRODUCTION",
    "STATUS_RETIRED",
    "STATUS_ROLLED_BACK",
]

REGISTRY_FILE = "registry.json"
VERSIONS_DIR = "versions"

#: Bumped when the state-file layout changes incompatibly.
STATE_FORMAT_VERSION = 1

STATUS_REGISTERED = "registered"
STATUS_PRODUCTION = "production"
STATUS_RETIRED = "retired"
STATUS_ROLLED_BACK = "rolled_back"

_ALL_STATUSES = frozenset(
    {
        STATUS_REGISTERED,
        STATUS_PRODUCTION,
        STATUS_RETIRED,
        STATUS_ROLLED_BACK,
    }
)

#: A status of older state files, read as :data:`STATUS_REGISTERED`.
_LEGACY_SHADOW = "shadow"

#: A model directory must at least carry its manifest to be registrable.
_REQUIRED_FILES = ("manifest.json",)


class RegistryError(RuntimeError):
    """An invalid registry operation (not an integrity failure)."""


def _now() -> float:
    return round(time.time(), 3)


class ModelRegistry:
    """Versioned model store rooted at ``root``.

    All mutating methods follow read-state → mutate → atomic-write, so
    a crash between any two operations leaves a consistent state file.
    Concurrent writers (CLI vs. daemon auto-rollback) are last-writer-
    wins on the whole document — acceptable because every mutation is a
    human- or guard-initiated control action, not a data-plane write.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)

    # ------------------------------------------------------------------
    # State IO

    @property
    def state_path(self) -> str:
        return os.path.join(self.root, REGISTRY_FILE)

    @property
    def versions_root(self) -> str:
        return os.path.join(self.root, VERSIONS_DIR)

    def path(self, version: str) -> str:
        """Directory holding ``version``'s immutable files."""
        return os.path.join(self.versions_root, version)

    @staticmethod
    def _fresh_state() -> dict:
        return {
            "format_version": STATE_FORMAT_VERSION,
            "next_version": 1,
            "production": None,
            "versions": {},
            "history": [],
        }

    def state(self) -> dict:
        """Parse and validate ``registry.json`` (fresh state if absent)."""
        path = self.state_path
        if not os.path.exists(path):
            return self._fresh_state()
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptArtifactError(path, f"unreadable registry state: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("versions"), dict):
            raise CorruptArtifactError(path, "registry state is not a versions document")
        if doc.get("format_version") != STATE_FORMAT_VERSION:
            raise CorruptArtifactError(
                path,
                f"unsupported registry format {doc.get('format_version')!r} "
                f"(this build reads format {STATE_FORMAT_VERSION})",
            )
        doc.pop("candidate", None)
        for version, record in doc["versions"].items():
            if isinstance(record, dict) and record.get("status") == _LEGACY_SHADOW:
                record["status"] = STATUS_REGISTERED
            if not isinstance(record, dict) or record.get("status") not in _ALL_STATUSES:
                raise CorruptArtifactError(
                    path, f"version {version!r} has an invalid record"
                )
        return doc

    def _write(self, state: dict) -> None:
        os.makedirs(self.root, exist_ok=True)
        atomic_write_json(self.state_path, state)

    @staticmethod
    def _audit(state: dict, action: str, version: str | None = None, *,
               by: str | None = None, reason: str | None = None, **extra) -> dict:
        entry: dict = {"action": action, "at": _now()}
        if version is not None:
            entry["version"] = version
        if by is not None:
            entry["by"] = by
        if reason is not None:
            entry["reason"] = reason
        entry.update({k: v for k, v in extra.items() if v is not None})
        state.setdefault("history", []).append(entry)
        return entry

    @staticmethod
    def _require(state: dict, version: str) -> dict:
        record = state["versions"].get(version)
        if record is None:
            known = ", ".join(sorted(state["versions"])) or "none"
            raise RegistryError(f"unknown version {version!r} (registered: {known})")
        if record.get("removed"):
            raise RegistryError(
                f"version {version} was garbage-collected; re-register the model"
            )
        return record

    # ------------------------------------------------------------------
    # Read-side accessors

    def production(self) -> str | None:
        """Currently promoted version, or ``None``."""
        return self.state().get("production")

    def records(self) -> list[tuple[str, dict]]:
        """``(version, record)`` pairs sorted by version number."""
        state = self.state()
        return sorted(
            state["versions"].items(),
            key=lambda item: int(item[0].lstrip("v") or 0),
        )

    def history(self) -> list[dict]:
        """The append-only audit log."""
        return list(self.state().get("history", []))

    # ------------------------------------------------------------------
    # Integrity

    def verify(self, version: str) -> None:
        """Re-hash every pinned file of ``version``; raise on any drift.

        :class:`CorruptArtifactError` names the offending *file* —
        missing, extra (immutability breach) or checksum-mismatched —
        not just the version directory.
        """
        self._verify(version, self._require(self.state(), version))

    def _verify(self, version: str, record: dict) -> None:
        directory = self.path(version)
        if not os.path.isdir(directory):
            raise CorruptArtifactError(directory, "version directory is missing")
        for name, expected in sorted(record["files"].items()):
            file_path = os.path.join(directory, name)
            if not os.path.isfile(file_path):
                raise CorruptArtifactError(file_path, "pinned file is missing")
            actual = file_sha256(file_path)
            if actual != expected:
                raise CorruptArtifactError(
                    file_path,
                    f"checksum mismatch (pinned {expected[:12]}…, computed {actual[:12]}…)",
                )
        extra = sorted(set(os.listdir(directory)) - set(record["files"]))
        if extra:
            raise CorruptArtifactError(
                directory, f"unexpected files in immutable version dir: {extra}"
            )

    # ------------------------------------------------------------------
    # Mutations

    def register(self, model_dir: str | os.PathLike, *, note: str | None = None,
                 by: str | None = None) -> str:
        """Copy ``model_dir`` in as the next version; return its name.

        The copy lands in a temporary sibling and is renamed into
        ``versions/<vN>/`` only once every file is hashed, so a crash
        mid-register never leaves a half-copied version visible.  A
        crash after the rename but before the state write leaves a
        ``versions/<vN>/`` that the state does not name; the next
        register removes that orphan before taking its name.
        """
        model_dir = os.fspath(model_dir)
        if not os.path.isdir(model_dir):
            raise RegistryError(f"model directory {model_dir!r} does not exist")
        names = sorted(
            name for name in os.listdir(model_dir)
            if os.path.isfile(os.path.join(model_dir, name))
        )
        for required in _REQUIRED_FILES:
            if required not in names:
                raise RegistryError(
                    f"{model_dir!r} is not a saved model directory (no {required})"
                )
        state = self.state()
        version = f"v{state['next_version']}"
        state["next_version"] += 1
        destination = self.path(version)
        staging = destination + ".staging"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        if version not in state["versions"] and os.path.exists(destination):
            shutil.rmtree(destination)
        os.makedirs(staging)
        checksums: dict[str, str] = {}
        for name in names:
            copied = os.path.join(staging, name)
            shutil.copy2(os.path.join(model_dir, name), copied)
            checksums[name] = file_sha256(copied)
        os.rename(staging, destination)
        state["versions"][version] = {
            "status": STATUS_REGISTERED,
            "created_at": _now(),
            "source": os.path.abspath(model_dir),
            "note": note,
            "files": checksums,
        }
        self._audit(state, "register", version, by=by, note=note)
        self._write(state)
        return version

    def promote(self, version: str, *, force: bool = False,
                by: str | None = None,
                gate: dict | None = None) -> tuple[str | None, str]:
        """Make ``version`` production; return ``(demoted, promoted)``.

        A quarantined (``rolled_back``) version is refused unless
        ``force`` — the operator must explicitly override the guard's
        decision.  The version directory is re-verified first, so a
        corrupt version can never become production.  ``gate`` is a
        passed gate verdict, written into this promote's audit entry;
        its ``against`` names the production version it was measured
        against, and a promote that finds another production raises
        :class:`RegistryError` and writes nothing.
        """
        state = self.state()
        record = self._require(state, version)
        if state.get("production") == version:
            raise RegistryError(f"version {version} is already production")
        if record["status"] == STATUS_ROLLED_BACK and not force:
            reason = record.get("reason") or "no reason recorded"
            raise RegistryError(
                f"version {version} was rolled back ({reason}); "
                "pass --force to promote it anyway"
            )
        demoted = state.get("production")
        if gate is not None and demoted != gate.get("against"):
            raise RegistryError(
                f"production is {demoted}, not {gate.get('against')}; "
                f"the gate verdict for {version} no longer applies"
            )
        self._verify(version, record)
        if demoted is not None:
            state["versions"][demoted]["status"] = STATUS_RETIRED
            state["versions"][demoted]["retired_at"] = _now()
        record["status"] = STATUS_PRODUCTION
        record["promoted_at"] = _now()
        state["production"] = version
        self._audit(state, "promote", version, by=by,
                    demoted=demoted, force=force or None, gate=gate)
        self._write(state)
        return demoted, version

    def rollback(self, *, reason: str = "manual rollback",
                 by: str | None = None,
                 expected: str | None = None) -> tuple[str, str]:
        """Quarantine production, reinstate the last-known-good version.

        Returns ``(quarantined, restored)``.  Last-known-good is the
        most recently retired version — i.e. the one production demoted
        when the now-bad version was promoted.  With ``expected``,
        production must still be that version when the state is read:
        a rollback that lost a race with a promote raises
        :class:`RegistryError` and writes nothing.  The restored version
        is re-verified first, as a promote's target is: a corrupt one
        raises :class:`CorruptArtifactError` naming the file and
        nothing is written.
        """
        state = self.state()
        bad = state.get("production")
        if bad is None:
            raise RegistryError("no production version to roll back")
        if expected is not None and bad != expected:
            raise RegistryError(
                f"production is {bad}, not {expected}; not rolling back"
            )
        retired = [
            (record.get("retired_at", 0.0), version)
            for version, record in state["versions"].items()
            if record["status"] == STATUS_RETIRED and not record.get("removed")
        ]
        if not retired:
            raise RegistryError(
                f"no previous good version to roll back to from {bad}"
            )
        restored = max(retired)[1]
        restored_record = state["versions"][restored]
        self._verify(restored, restored_record)
        bad_record = state["versions"][bad]
        bad_record["status"] = STATUS_ROLLED_BACK
        bad_record["reason"] = reason
        bad_record["rolled_back_at"] = _now()
        restored_record["status"] = STATUS_PRODUCTION
        restored_record.pop("retired_at", None)
        state["production"] = restored
        self._audit(state, "rollback", bad, by=by, reason=reason, restored=restored)
        self._write(state)
        return bad, restored

    def gc(self, *, keep: int = 2, by: str | None = None) -> list[str]:
        """Delete old retired / rolled-back version dirs; keep ``keep`` newest.

        Production and registered versions are never collected.  Removed
        versions stay in the state file (``removed: true``) so the audit
        trail survives the bytes.  The flags are written before any
        directory is deleted: a crash in between leaves orphan
        directories, never a version marked present whose bytes are
        gone (which a rollback could restore).
        """
        if keep < 0:
            raise RegistryError("keep must be >= 0")
        state = self.state()
        collectable = sorted(
            (
                (record.get("created_at", 0.0), version)
                for version, record in state["versions"].items()
                if record["status"] in (STATUS_RETIRED, STATUS_ROLLED_BACK)
                and not record.get("removed")
            ),
            reverse=True,
        )
        removed = [version for _, version in collectable[keep:]]
        if not removed:
            return removed
        for version in removed:
            state["versions"][version]["removed"] = True
        self._audit(state, "gc", by=by, removed=removed, keep=keep)
        self._write(state)
        for version in removed:
            directory = self.path(version)
            if os.path.isdir(directory):
                shutil.rmtree(directory)
        return removed
