package repro.partition

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.{GraphGen, PropertyGraph}

class ReplicationSpec extends SparkSpec {
  import TestUtil._

  private def skewed = PropertyGraph(spark, chunks = 1)(GraphGen.rmatEdges(8, 800, 131)).cached()

  test("replication factors are at least 1 and at most k") {
    val g = skewed
    val rf = Replication.randomVertexCut(g, 8)
    assert(rf >= 1.0 && rf <= 8.0, s"rf=$rf")
    g.unpersist()
  }

  test("single machine means replication factor exactly 1") {
    val g = figure1(spark)
    assert(Replication.randomVertexCut(g, 1) == 1.0)
    assert(Replication.hybridCut(g, 1, threshold = 2) == 1.0)
  }

  test("hybrid-cut beats random vertex-cut on a skewed graph (PowerLyra's claim)") {
    val g = skewed
    val rfG = Replication.randomVertexCut(g, 8)
    val avgDeg = g.numEdges / math.max(g.numVertices, 1)
    val rfL = Replication.hybridCut(g, 8, threshold = 4 * math.max(avgDeg, 1L))
    assert(rfL < rfG, s"hybrid=$rfL random=$rfG")
    g.unpersist()
  }

  test("random vertex-cut replication matches a DuckDB recount") {
    val g = figure1(spark)
    val k = 3
    val placed = g.edges.withColumn("node", pmod(hash(col("src"), col("dst"), lit(7)), lit(k)))
    val sparkCount = placed
      .select(explode(array(col("src"), col("dst"))) as "v", col("node"))
      .distinct()
      .groupBy("v").agg(count(lit(1)) as "machines")
    Oracle.assertEquivalent(
      sparkCount,
      """SELECT v, COUNT(DISTINCT node) AS machines FROM (
        |  SELECT src AS v, node FROM placed UNION ALL SELECT dst AS v, node FROM placed
        |) GROUP BY v""".stripMargin,
      "placed" -> placed)
  }

  test("hybrid-cut with huge threshold hashes everything by destination") {
    // All in-degrees below the threshold -> every dst's in-edges colocate;
    // replication then counts (dst-home + src appearances) only.
    val g = figure1(spark)
    val rf = Replication.hybridCut(g, 4, threshold = Long.MaxValue)
    assert(rf >= 1.0 && rf <= 4.0)
  }
}
