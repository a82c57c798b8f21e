"""Tests for the repair ticket database."""

import pytest

from repro.backbone.emails import (
    format_completion_email,
    format_start_email,
    parse_vendor_email,
)
from repro.backbone.tickets import RepairTicket, TicketDatabase, TicketType


def start(link="fbl-1", vendor="v0", t=10.0, ref=None, maintenance=False):
    return parse_vendor_email(
        format_start_email(link, vendor, t, ticket_ref=ref,
                           maintenance=maintenance)
    )


def complete(link="fbl-1", vendor="v0", t=20.0, ref=None):
    return parse_vendor_email(
        format_completion_email(link, vendor, t, ticket_ref=ref)
    )


class TestIngestByLink:
    def test_pairing(self):
        db = TicketDatabase()
        db.ingest(start())
        ticket = db.ingest(complete())
        assert not ticket.open
        assert ticket.duration_h == pytest.approx(10.0)
        assert len(db.completed()) == 1

    def test_duplicate_start_rejected(self):
        db = TicketDatabase()
        db.ingest(start())
        with pytest.raises(ValueError, match="already has an open"):
            db.ingest(start(t=12.0))

    def test_completion_without_start_rejected(self):
        db = TicketDatabase()
        with pytest.raises(ValueError, match="without an open"):
            db.ingest(complete())

    def test_out_of_order_completion_rejected(self):
        db = TicketDatabase()
        db.ingest(start(t=10.0))
        with pytest.raises(ValueError, match="precedes"):
            db.ingest(complete(t=5.0))
        # The ticket stays open and can still be completed properly.
        db.ingest(complete(t=15.0))
        assert len(db.completed()) == 1

    def test_maintenance_type(self):
        db = TicketDatabase()
        db.ingest(start(maintenance=True))
        ticket = db.completed()[0] if db.completed() else db.open_tickets()[0]
        assert ticket.ticket_type is TicketType.MAINTENANCE


class TestIngestByRef:
    def test_overlapping_work_on_one_link(self):
        db = TicketDatabase()
        db.ingest(start(t=10.0, ref="wo-1"))
        db.ingest(start(t=12.0, ref="wo-2"))
        db.ingest(complete(t=30.0, ref="wo-1"))
        db.ingest(complete(t=25.0, ref="wo-2"))
        durations = sorted(t.duration_h for t in db.completed())
        assert durations == pytest.approx([13.0, 20.0])

    def test_duplicate_ref_rejected(self):
        db = TicketDatabase()
        db.ingest(start(ref="wo-1"))
        with pytest.raises(ValueError, match="duplicate start"):
            db.ingest(start(t=12.0, ref="wo-1"))

    def test_unknown_ref_completion_rejected(self):
        db = TicketDatabase()
        with pytest.raises(ValueError, match="unknown ticket ref"):
            db.ingest(complete(ref="wo-9"))

    def test_ref_link_mismatch_rejected(self):
        db = TicketDatabase()
        db.ingest(start(link="fbl-1", ref="wo-1"))
        with pytest.raises(ValueError, match="belongs to link"):
            db.ingest(complete(link="fbl-2", ref="wo-1"))
        # Ticket stays open after the rejected completion.
        assert len(db.open_tickets()) == 1


class TestDirectInsertionAndQueries:
    def make_db(self):
        db = TicketDatabase()
        db.add_completed("fbl-1", "v0", 0.0, 5.0)
        db.add_completed("fbl-1", "v0", 100.0, 101.0)
        db.add_completed("fbl-2", "v1", 50.0, 60.0,
                         ticket_type=TicketType.MAINTENANCE)
        return db

    def test_add_completed_validates(self):
        db = TicketDatabase()
        with pytest.raises(ValueError):
            db.add_completed("fbl-1", "v0", 10.0, 5.0)

    def test_for_link(self):
        db = self.make_db()
        assert len(db.for_link("fbl-1")) == 2
        assert db.for_link("ghost") == []

    def test_for_vendor(self):
        db = self.make_db()
        assert len(db.for_vendor("v1")) == 1

    def test_vendors_and_links(self):
        db = self.make_db()
        assert db.vendors() == ["v0", "v1"]
        assert db.links() == ["fbl-1", "fbl-2"]

    def test_in_window(self):
        db = self.make_db()
        assert len(db.in_window(0.0, 60.0)) == 2
        assert len(db.in_window(49.0, 51.0)) == 1

    def test_interval_of_open_ticket_raises(self):
        ticket = RepairTicket("t", "l", "v", TicketType.REPAIR, 1.0)
        with pytest.raises(ValueError, match="open"):
            ticket.interval()
        with pytest.raises(ValueError, match="open"):
            _ = ticket.duration_h

    def test_len_and_iter(self):
        db = self.make_db()
        assert len(db) == 3
        assert len(list(db)) == 3


class TestCompletedCount:
    """``completed_count()`` is ``len(completed())`` without the list."""

    def test_tracks_completed_through_every_transition(self):
        db = TicketDatabase()
        steps = [
            lambda: db.ingest(start("fbl-1", t=1.0)),
            lambda: db.ingest(start("fbl-2", t=2.0, ref="R-1")),
            lambda: db.ingest(start("fbl-2", t=3.0, ref="R-2")),
            lambda: db.ingest(complete("fbl-1", t=4.0)),
            # rejected completions leave the ticket open
            lambda: db.ingest(complete("fbl-2", t=0.5, ref="R-1")),
            lambda: db.ingest(complete("fbl-3", t=5.0, ref="R-2")),
            lambda: db.ingest(complete("fbl-9", t=5.0)),
            lambda: db.ingest(complete("fbl-2", t=6.0, ref="R-1")),
            lambda: db.add_completed("fbl-4", "v1", 7.0, 8.0),
            lambda: db.add_ticket(RepairTicket(
                "keep-1", "fbl-5", "v2", TicketType.REPAIR, 9.0, 10.0,
            )),
            lambda: db.ingest(start("fbl-1", t=11.0)),
            lambda: db.ingest(complete("fbl-2", t=12.0, ref="R-2")),
        ]
        for step in steps:
            try:
                step()
            except ValueError:
                pass
            assert db.completed_count() == len(db.completed())
        assert db.completed_count() == 5
        assert len(db.open_tickets()) == 1

    def test_fingerprint_unchanged_on_the_simulated_corpus(self):
        import hashlib

        from repro.io.ticket_io import TICKET_FIELDS
        from repro.runtime import ticket_fingerprint
        from repro.simulation.backbone_sim import BackboneSimulator
        from repro.simulation.scenarios import paper_backbone_scenario

        db = BackboneSimulator(paper_backbone_scenario(seed=7)).run().tickets
        schema = ";".join(TICKET_FIELDS) + "|" + ",".join(
            t.value for t in TicketType
        )
        payload = (
            f"domain=ticket;rows={len(db.completed())};seed=7;scenario=None"
            f";schema={hashlib.sha256(schema.encode()).hexdigest()}"
        )
        assert db.completed_count() == len(db.completed())
        assert (ticket_fingerprint(db, seed=7)
                == hashlib.sha256(payload.encode()).hexdigest())
