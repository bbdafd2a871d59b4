"""Fingerprint canonicalization and the annotation cache."""
from repro.sqlparser import AnnotationCache, canonicalize, fingerprint, parse


class TestCanonicalize:
    def test_keywords_and_identifiers_casefolded(self):
        assert canonicalize("select id from Users") == "SELECT ID FROM USERS"

    def test_literals_normalized_to_placeholders(self):
        canonical = canonicalize("SELECT * FROM t WHERE a = 42 AND b = 'x'")
        assert canonical == "SELECT * FROM T WHERE A = ? AND B = ?"

    def test_whitespace_and_comments_collapsed(self):
        a = canonicalize("SELECT  a\n FROM t -- trailing comment")
        b = canonicalize("SELECT a FROM t")
        assert a == b

    def test_bind_placeholders_normalized(self):
        assert canonicalize("SELECT a FROM t WHERE id = %s") == canonicalize(
            "SELECT a FROM t WHERE id = 7"
        )

    def test_accepts_token_lists(self):
        statement = parse("SELECT a FROM t WHERE id = 1")[0]
        assert canonicalize(statement.tokens) == "SELECT A FROM T WHERE ID = ?"


class TestFingerprint:
    def test_literal_only_duplicates_share_fingerprint(self):
        assert fingerprint("SELECT * FROM orders WHERE id = 1") == fingerprint(
            "select * from ORDERS   where id = 99"
        )

    def test_different_statements_differ(self):
        assert fingerprint("SELECT a FROM t") != fingerprint("SELECT b FROM t")

    def test_stable_across_calls(self):
        sql = "UPDATE t SET a = 'x' WHERE id = 3"
        assert fingerprint(sql) == fingerprint(sql)

    def test_cached_on_parsed_statement(self):
        statement = parse("SELECT a FROM t WHERE id = 1")[0]
        assert statement.fingerprint == fingerprint(statement.raw)
        assert statement.fingerprint is statement.fingerprint  # cached


class TestAnnotationCache:
    def test_miss_then_hit(self):
        cache = AnnotationCache(maxsize=4)
        assert cache.get("SELECT 1") is None
        cache.put("SELECT 1", "value")
        assert cache.get("SELECT 1") == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_fingerprint_collision_requires_exact_text(self):
        # Same template, different literals: one fingerprint, distinct entries.
        cache = AnnotationCache(maxsize=4)
        a = "SELECT t FROM x WHERE t LIKE 'INV-2020%'"
        b = "SELECT t FROM x WHERE t LIKE '%offer%'"
        assert fingerprint(a) == fingerprint(b)
        cache.put(a, "prefix-like")
        assert cache.get(b) is None
        cache.put(b, "wildcard-like")
        assert cache.get(a) == "prefix-like"
        assert cache.get(b) == "wildcard-like"

    def test_lru_eviction(self):
        cache = AnnotationCache(maxsize=2)
        cache.put("SELECT a FROM t1", 1)
        cache.put("SELECT b FROM t2", 2)
        cache.get("SELECT a FROM t1")  # touch: t1 becomes most recent
        cache.put("SELECT c FROM t3", 3)
        assert cache.get("SELECT b FROM t2") is None  # evicted
        assert cache.get("SELECT a FROM t1") == 1
        assert cache.stats.evictions == 1

    def test_put_overwrites_same_text(self):
        cache = AnnotationCache(maxsize=4)
        cache.put("SELECT 1", "old")
        cache.put("SELECT 1", "new")
        assert cache.get("SELECT 1") == "new"
        assert len(cache) == 1

    def test_clear(self):
        cache = AnnotationCache(maxsize=4)
        cache.put("SELECT 1", "value")
        cache.clear()
        assert cache.get("SELECT 1") is None
