"""Tests for the slotted page layout."""

import pytest

from repro.pgsim.constants import PAGE_HEADER_SIZE
from repro.pgsim.page import FLAG_HAS_DEAD, Page, PageCorruptError, PageFullError


@pytest.fixture()
def page():
    return Page.init(1024)


class TestInit:
    def test_fresh_layout(self, page):
        assert page.lower == PAGE_HEADER_SIZE
        assert page.upper == 1024
        assert page.special == 1024
        assert page.item_count == 0
        assert page.version == 4

    def test_special_space_reserved(self):
        page = Page.init(1024, special_size=16)
        assert page.special == 1008
        assert page.upper == 1008
        assert len(page.read_special()) == 16

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            Page.init(64)

    def test_oversized_special_rejected(self):
        with pytest.raises(ValueError):
            Page.init(1024, special_size=1024)


class TestItems:
    def test_insert_get_roundtrip(self, page):
        off = page.insert_item(b"hello")
        assert off == 1
        assert page.get_item(1) == b"hello"

    def test_offsets_sequential(self, page):
        assert [page.insert_item(bytes([i])) for i in range(5)] == [1, 2, 3, 4, 5]

    def test_items_grow_down_pointers_grow_up(self, page):
        before_lower, before_upper = page.lower, page.upper
        page.insert_item(b"x" * 10)
        assert page.lower == before_lower + 4
        assert page.upper == before_upper - 10

    def test_free_space_accounting(self, page):
        free = page.free_space
        page.insert_item(b"x" * 100)
        assert page.free_space == free - 100 - 4

    def test_page_full(self, page):
        with pytest.raises(PageFullError):
            page.insert_item(b"x" * 2000)

    def test_fill_to_capacity(self, page):
        count = 0
        while page.free_space >= 32:
            page.insert_item(b"y" * 32)
            count += 1
        assert page.item_count == count
        assert count == (1024 - PAGE_HEADER_SIZE) // 36

    def test_empty_item_rejected(self, page):
        with pytest.raises(ValueError):
            page.insert_item(b"")

    def test_out_of_range_offset(self, page):
        page.insert_item(b"a")
        with pytest.raises(IndexError):
            page.get_item(0)
        with pytest.raises(IndexError):
            page.get_item(2)

    def test_item_view_is_zero_copy(self, page):
        page.insert_item(b"abcd")
        view = page.get_item_view(1)
        view[0] = ord("z")
        assert page.get_item(1) == b"zbcd"


class TestDelete:
    def test_delete_marks_dead(self, page):
        page.insert_item(b"a")
        page.insert_item(b"b")
        page.delete_item(1)
        assert page.is_dead(1)
        assert not page.is_dead(2)
        assert page.flags & FLAG_HAS_DEAD
        with pytest.raises(PageCorruptError):
            page.get_item(1)

    def test_live_items(self, page):
        for ch in b"abc":
            page.insert_item(bytes([ch]))
        page.delete_item(2)
        assert page.live_items() == [1, 3]

    def test_defragment_reclaims_space(self, page):
        for __ in range(5):
            page.insert_item(b"x" * 50)
        page.delete_item(2)
        page.delete_item(4)
        free_before = page.free_space
        freed = page.defragment()
        assert freed == 100
        assert page.free_space == free_before + 100

    def test_line_pointer_readers_match_per_item_definition(self, page):
        """``live_items`` / ``live_pointers`` (one read of the pointer
        array) agree with the per-item accessors on an empty page and
        through deletes and defragmentation."""

        def check():
            n = page.item_count
            live = [i for i in range(1, n + 1) if not page.is_dead(i)]
            assert page.live_items() == live
            assert page.live_pointers() == [(i, *page._pointer(i)) for i in live]
            for i, off, length in page.live_pointers():
                assert bytes(page.buf[off : off + length]) == page.get_item(i)

        check()
        for i in range(12):
            page.insert_item(bytes([i]) * (i + 3))
        check()
        for i in (1, 5, 6, 12):
            page.delete_item(i)
        check()
        page.defragment()
        check()
        page.insert_item(b"after")
        page.delete_item(2)
        check()

    def test_defragment_preserves_live_offsets(self, page):
        offs = [page.insert_item(bytes([i]) * 8) for i in range(4)]
        page.delete_item(2)
        page.defragment()
        assert page.get_item(1) == bytes([0]) * 8
        assert page.get_item(3) == bytes([2]) * 8
        assert page.get_item(4) == bytes([3]) * 8
        assert page.is_dead(2)


class TestSpecial:
    def test_write_read_special(self):
        page = Page.init(512, special_size=8)
        page.write_special(b"ABCDEFGH")
        assert page.read_special() == b"ABCDEFGH"

    def test_wrong_size_rejected(self):
        page = Page.init(512, special_size=8)
        with pytest.raises(ValueError):
            page.write_special(b"short")

    def test_special_survives_inserts(self):
        page = Page.init(512, special_size=4)
        page.write_special(b"NEXT")
        while page.free_space >= 20:
            page.insert_item(b"z" * 20)
        assert page.read_special() == b"NEXT"


class TestChecksum:
    def test_roundtrip(self, page):
        page.insert_item(b"data")
        page.update_checksum()
        page.verify_checksum()  # must not raise

    def test_detects_corruption(self, page):
        page.insert_item(b"data")
        page.update_checksum()
        page.buf[500] ^= 0xFF
        with pytest.raises(PageCorruptError):
            page.verify_checksum()

    def test_unstamped_page_passes(self, page):
        page.insert_item(b"data")
        page.verify_checksum()  # checksum 0 means "never stamped"

    def test_lsn_roundtrip(self, page):
        page.lsn = 12345678901
        assert page.lsn == 12345678901
