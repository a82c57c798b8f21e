"""SEV authoring and review workflow (sections 2 and 4.2).

Engineers who respond to a SEV write its report; each report then goes
through a review process that verifies accuracy and completeness.  Two
published properties of the workflow matter to the study and are
enforced here:

* the root cause category is a **mandatory** field (section 4.3.1) —
  authors who cannot determine a cause must mark it undetermined
  explicitly, which is why "undetermined" is a first-class Table 2
  category rather than missing data;
* severity is a high-water mark and can be raised during review but
  never downgraded (section 5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.incidents.sev import RootCause, Severity, SEVReport
from repro.incidents.store import SEVStore
from repro.topology.naming import device_type_from_name


class ValidationError(ValueError):
    """A draft failed the review checklist."""


class ReviewState(enum.Enum):
    DRAFT = "draft"
    IN_REVIEW = "in_review"
    PUBLISHED = "published"
    REJECTED = "rejected"


@dataclass
class SEVDraft:
    """A SEV report being authored."""

    severity: Severity
    device_name: str
    opened_at_h: float
    resolved_at_h: float
    root_causes: List[RootCause] = field(default_factory=list)
    description: str = ""
    service_impact: str = ""
    state: ReviewState = ReviewState.DRAFT

    def escalate(self, severity: Severity) -> None:
        """Raise the severity high-water mark; never lowers it."""
        if severity < self.severity:
            self.severity = severity

    def downgrade(self, severity: Severity) -> None:
        raise ValidationError(
            "a SEV's level is never downgraded to reflect progress in "
            "resolving the SEV (section 5.3)"
        )


class SEVAuthoringWorkflow:
    """Drives drafts through review into a :class:`SEVStore`."""

    def __init__(self, store: SEVStore, id_prefix: str = "sev") -> None:
        self._store = store
        self._prefix = id_prefix
        self._next_id = len(store)

    def validate(self, draft: SEVDraft) -> List[str]:
        """Run the review checklist; returns problems (empty = passes)."""
        problems = []
        if not draft.root_causes:
            problems.append(
                "root cause category is a mandatory field; record "
                "UNDETERMINED explicitly if the cause is inconclusive"
            )
        if device_type_from_name(draft.device_name) is None:
            problems.append(
                f"device name {draft.device_name!r} does not follow the "
                "type-prefix naming convention"
            )
        if draft.resolved_at_h < draft.opened_at_h:
            problems.append("resolution precedes the incident start")
        if not draft.description:
            problems.append("the report must describe the incident")
        return problems

    def submit(self, draft: SEVDraft) -> None:
        if draft.state is not ReviewState.DRAFT:
            raise ValidationError(f"cannot submit a draft in {draft.state}")
        draft.state = ReviewState.IN_REVIEW

    def review(self, draft: SEVDraft) -> Optional[SEVReport]:
        """Review a submitted draft; publish on success.

        Returns the published report, or None when the draft is
        rejected back to the author (its state records the problems
        implicitly -- callers re-validate to list them).
        """
        if draft.state is not ReviewState.IN_REVIEW:
            raise ValidationError(f"cannot review a draft in {draft.state}")
        if self.validate(draft):
            draft.state = ReviewState.REJECTED
            return None
        report = self._report(draft)
        self._store.insert(report)
        draft.state = ReviewState.PUBLISHED
        return report

    def author_and_publish(self, draft: SEVDraft) -> SEVReport:
        """Submit and review in one step; raises on rejection."""
        self.submit(draft)
        report = self.review(draft)
        if report is None:
            raise _rejected(self.validate(draft))
        return report

    def publish_many(self, drafts: Iterable[SEVDraft]) -> int:
        """Submit, review and publish a stream of drafts in one load.

        Each draft passes the same checklist as
        :meth:`author_and_publish` and becomes the same report, with
        ids from the same counter, but the reports stream through one
        :meth:`SEVStore.bulk_load` -- one transaction, not one per
        report.  Drafts are pulled lazily, so a generator that draws
        from an RNG interleaves with publishing exactly as a loop of
        :meth:`author_and_publish` calls would.  Returns the count.

        All or nothing: a rejected draft raises :class:`ValidationError`,
        the load rolls back and the id counter rewinds, so the store
        and the next id are as they were before the call.
        """
        first_id = self._next_id
        try:
            return self._store.bulk_load(
                self._accept(draft) for draft in drafts
            )
        except BaseException:
            self._next_id = first_id
            raise

    def _accept(self, draft: SEVDraft) -> SEVReport:
        """Submit and review ``draft`` without storing it."""
        self.submit(draft)
        problems = self.validate(draft)
        if problems:
            draft.state = ReviewState.REJECTED
            raise _rejected(problems)
        draft.state = ReviewState.PUBLISHED
        return self._report(draft)

    def _report(self, draft: SEVDraft) -> SEVReport:
        """The published form of an accepted draft; takes the next id."""
        sev_id = f"{self._prefix}-{self._next_id:06d}"
        self._next_id += 1
        return SEVReport(
            sev_id=sev_id,
            severity=draft.severity,
            device_name=draft.device_name,
            opened_at_h=draft.opened_at_h,
            resolved_at_h=draft.resolved_at_h,
            root_causes=tuple(draft.root_causes),
            description=draft.description,
            service_impact=draft.service_impact,
            reviewed=True,
        )


def _rejected(problems: List[str]) -> ValidationError:
    return ValidationError(f"draft rejected: {'; '.join(problems)}")
