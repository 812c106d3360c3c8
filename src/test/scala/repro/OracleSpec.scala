package repro

/** The oracle is itself load-bearing; verify it accepts equal results and
  * rejects wrong ones.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private def kv = Seq((1L, 2.0), (2L, 3.0), (3L, 3.0)).toDF("k", "v")

  // Oracle tables are created as VARCHAR, so SQL must cast grouped values
  // back to their Spark types for the canonical comparison to line up.
  test("accepts an identical aggregation") {
    Oracle.assertEquivalent(
      kv.groupBy("v").count(),
      "SELECT CAST(v AS DOUBLE) AS v, COUNT(*) AS count FROM t GROUP BY v",
      "t" -> kv)
  }

  test("rejects a wrong result") {
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        kv.filter($"k" =!= 1L).groupBy("v").count(),
        "SELECT CAST(v AS DOUBLE) AS v, COUNT(*) AS count FROM t GROUP BY v",
        "t" -> kv)
    }
  }

  test("rejects mismatched column names") {
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        kv.groupBy("v").count(),
        "SELECT CAST(v AS DOUBLE) AS v, COUNT(*) AS wrong FROM t GROUP BY v",
        "t" -> kv)
    }
  }

  test("handles doubles via canonical 6-decimal rounding") {
    val df = Seq((1L, 1.0 / 3.0)).toDF("k", "x")
    Oracle.assertEquivalent(
      df,
      "SELECT k, CAST(1.0 AS DOUBLE)/3 AS x FROM (SELECT CAST(k AS BIGINT) k FROM t)",
      "t" -> df.select("k"))
  }

  test("recursive-CTE helper SQL is well-formed on a trivial graph") {
    val g = TestUtil.graph(Seq((0L, 1L, 2.0)), chunks = 1)
    Oracle.assertEquivalent(
      Seq((0L, 0.0), (1L, 2.0)).toDF("id", "dist"),
      TestUtil.ssspSql(0L, bound = 100),
      "edges" -> g.edges)
  }
}
