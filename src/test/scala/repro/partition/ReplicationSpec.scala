package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.{GraphGen, PropertyGraph}

class ReplicationSpec extends SparkSpec {
  import TestUtil._

  private def skewed = PropertyGraph("rmat", chunks = 1)(GraphGen.rmatEdges(8, 800, 131))

  test("replication factors are at least 1 and at most k") {
    val g = skewed
    val rf = Replication.randomVertexCut(g, 8)
    assert(rf >= 1.0 && rf <= 8.0, s"rf=$rf")
  }

  test("single machine means replication factor exactly 1") {
    val g = figure1()
    assert(Replication.randomVertexCut(g, 1) == 1.0)
    assert(Replication.hybridCut(g, 1, threshold = 2) == 1.0)
  }

  test("hybrid-cut beats random vertex-cut on a skewed graph (PowerLyra's claim)") {
    val g = skewed
    val rfG = Replication.randomVertexCut(g, 8)
    val avgDeg = g.numEdges / math.max(g.numVertices, 1)
    val rfL = Replication.hybridCut(g, 8, threshold = 4 * math.max(avgDeg, 1L))
    assert(rfL < rfG, s"hybrid=$rfL random=$rfG")
  }

  test("random vertex-cut replication matches a DuckDB recount") {
    // Spark SQL places each edge; DuckDB counts the distinct (vertex,
    // machine) pairs of that placement, which the factor times |V| must equal.
    import spark.implicits._
    val g = figure1()
    val k = 3
    val placed = g.edges.withColumn("node", pmod(hash(col("src"), col("dst"), lit(7)), lit(k)))
    val pairs = math.round(Replication.randomVertexCut(g, k) * g.numVertices)
    Oracle.assertEquivalent(
      Seq(pairs).toDF("pairs"),
      """SELECT COUNT(*) AS pairs FROM (
        |  SELECT src AS v, node FROM placed UNION SELECT dst AS v, node FROM placed
        |)""".stripMargin,
      "placed" -> placed)
  }

  /** Replication factor of the SQL placement `placed` (a `node` per edge). */
  private def sqlFactor(g: PropertyGraph, placed: DataFrame): Double =
    placed.select(explode(array(col("src"), col("dst"))) as "v", col("node")).distinct().count().toDouble /
      g.numVertices

  private def sqlRandomVertexCut(g: PropertyGraph, k: Int): Double =
    sqlFactor(g, g.edges.withColumn("node", pmod(hash(col("src"), col("dst"), lit(7)), lit(k))))

  private def sqlHybridCut(g: PropertyGraph, k: Int, threshold: Long): Double = {
    val inDeg = g.edges.groupBy(col("dst") as "dd").agg(count(lit(1)) as "deg")
    sqlFactor(g, g.edges.join(inDeg, col("dst") === col("dd")).withColumn("node",
      when(col("deg") < threshold, pmod(hash(col("dst"), lit(7)), lit(k)))
        .otherwise(pmod(hash(col("src"), lit(7)), lit(k)))))
  }

  test("replication factors equal those of Spark SQL's placement") {
    val gs = Seq(figure1(), skewed,
      PropertyGraph("uniform", chunks = 3)(GraphGen.uniformEdges(60, 200, 132)))
    for (g <- gs; k <- Seq(3, 8)) {
      assert(Replication.randomVertexCut(g, k) == sqlRandomVertexCut(g, k), s"${g.name} k=$k")
      for (t <- Seq(2L, 4 * math.max(g.numEdges / g.numVertices, 1L)))
        assert(Replication.hybridCut(g, k, t) == sqlHybridCut(g, k, t), s"${g.name} k=$k threshold=$t")
    }
  }

  test("hybrid-cut with huge threshold hashes everything by destination") {
    // All in-degrees below the threshold -> every dst's in-edges colocate;
    // replication then counts (dst-home + src appearances) only.
    val g = figure1()
    val rf = Replication.hybridCut(g, 4, threshold = Long.MaxValue)
    assert(rf >= 1.0 && rf <= 4.0)
  }
}
