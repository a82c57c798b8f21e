"""Tests for the SEV authoring/review workflow."""

import pytest

from repro.incidents.sev import RootCause, Severity
from repro.incidents.store import SEVStore
from repro.incidents.workflow import (
    ReviewState,
    SEVAuthoringWorkflow,
    SEVDraft,
    ValidationError,
)


def draft(**kw):
    defaults = dict(
        severity=Severity.SEV3,
        device_name="rsw.001.pod1.dc1.ra",
        opened_at_h=10.0,
        resolved_at_h=20.0,
        root_causes=[RootCause.BUG],
        description="switch crash from software bug",
    )
    defaults.update(kw)
    return SEVDraft(**defaults)


class TestValidation:
    def test_valid_draft_passes(self):
        with SEVStore() as store:
            assert SEVAuthoringWorkflow(store).validate(draft()) == []

    def test_root_cause_mandatory(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(root_causes=[])
            )
            assert any("mandatory" in p for p in problems)

    def test_bad_device_name(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(device_name="unknown-device")
            )
            assert any("naming convention" in p for p in problems)

    def test_time_travel(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(resolved_at_h=5.0)
            )
            assert any("precedes" in p for p in problems)

    def test_description_required(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(description="")
            )
            assert any("describe" in p for p in problems)


class TestSeverityHighWaterMark:
    def test_escalation_raises_level(self):
        d = draft(severity=Severity.SEV3)
        d.escalate(Severity.SEV1)
        assert d.severity is Severity.SEV1

    def test_escalate_never_lowers(self):
        d = draft(severity=Severity.SEV1)
        d.escalate(Severity.SEV3)
        assert d.severity is Severity.SEV1

    def test_downgrade_forbidden(self):
        with pytest.raises(ValidationError, match="never downgraded"):
            draft(severity=Severity.SEV1).downgrade(Severity.SEV2)


class TestLifecycle:
    def test_publish_path(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            d = draft()
            workflow.submit(d)
            assert d.state is ReviewState.IN_REVIEW
            published = workflow.review(d)
            assert published is not None
            assert d.state is ReviewState.PUBLISHED
            assert store.get(published.sev_id) is not None

    def test_rejection_path(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            d = draft(root_causes=[])
            workflow.submit(d)
            assert workflow.review(d) is None
            assert d.state is ReviewState.REJECTED
            assert len(store) == 0

    def test_cannot_review_unsubmitted(self):
        with SEVStore() as store:
            with pytest.raises(ValidationError):
                SEVAuthoringWorkflow(store).review(draft())

    def test_cannot_submit_twice(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            d = draft()
            workflow.submit(d)
            with pytest.raises(ValidationError):
                workflow.submit(d)

    def test_author_and_publish_raises_on_bad_draft(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            with pytest.raises(ValidationError, match="rejected"):
                workflow.author_and_publish(draft(description=""))

    def test_unique_ids(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            ids = {
                workflow.author_and_publish(draft()).sev_id
                for _ in range(10)
            }
            assert len(ids) == 10


class TestPublishMany:
    def test_same_reports_as_one_by_one(self):
        drafts = [
            dict(opened_at_h=float(i), resolved_at_h=float(i) + 2.5,
                 severity=Severity(1 + i % 3))
            for i in range(25)
        ]
        with SEVStore() as one, SEVStore() as many:
            by_one = SEVAuthoringWorkflow(one)
            for kw in drafts:
                by_one.author_and_publish(draft(**kw))
            count = SEVAuthoringWorkflow(many).publish_many(
                draft(**kw) for kw in drafts
            )
            assert count == len(drafts)
            assert list(many.all_reports()) == list(one.all_reports())

    def test_published_drafts_change_state(self):
        with SEVStore() as store:
            drafts = [draft(), draft()]
            SEVAuthoringWorkflow(store).publish_many(drafts)
            assert all(d.state is ReviewState.PUBLISHED for d in drafts)

    def test_ids_continue_from_store_length(self):
        with SEVStore() as store:
            first = SEVAuthoringWorkflow(store)
            for _ in range(3):
                first.author_and_publish(draft())
            SEVAuthoringWorkflow(store).publish_many([draft(), draft()])
            ids = sorted(r.sev_id for r in store.all_reports())
            assert ids == [f"sev-{i:06d}" for i in range(5)]

    def test_rejected_draft_leaves_store_untouched(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            workflow.publish_many([draft(), draft()])
            bad = draft(root_causes=[])
            with pytest.raises(ValidationError, match="mandatory"):
                workflow.publish_many([draft(), draft(), bad, draft()])
            assert len(store) == 2
            assert bad.state is ReviewState.REJECTED
            # The id counter rewound with the rolled-back load.
            assert workflow.author_and_publish(draft()).sev_id == "sev-000002"
            # The rollback left the indexes in place.
            assert store.index_names()
            assert store.years()

    def test_schema_hash_survives_the_bulk_load(self):
        # bulk_load drops and rebuilds the indexes; the schema hash
        # feeds the cache fingerprint, so it must come back unchanged.
        with SEVStore() as store:
            before = store.schema_hash()
            SEVAuthoringWorkflow(store).publish_many([draft(), draft()])
            assert store.schema_hash() == before
            with pytest.raises(ValidationError):
                SEVAuthoringWorkflow(store).publish_many(
                    [draft(description="")]
                )
            assert store.schema_hash() == before
