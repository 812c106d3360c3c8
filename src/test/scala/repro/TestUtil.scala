package repro

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalacheck.{Prop, Test => SCTest}
import repro.graph.{EdgeList, PropertyGraph}

/** Shared helpers for the test suites: ScalaCheck runner (scalatestplus is
  * not available offline), small graph builders, and DuckDB recursive-CTE
  * SQL used by `repro.Oracle` to check whole-algorithm fixpoints.
  */
object TestUtil {

  /** Run a ScalaCheck property and fail the surrounding ScalaTest test if it
    * does not pass.
    */
  def checkProp(prop: Prop, minSuccessful: Int = 30): Unit = {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(minSuccessful)
    val res = SCTest.check(params, prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  /** `body`'s result and the number of Spark jobs started while it ran. A
    * listener sees jobs in the order they start, so every job of `body`
    * arrives before a marker job run after it.
    */
  def sparkJobs[T](spark: SparkSession)(body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val marker = "sparkJobs-marker"
    val started = new LinkedBlockingQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        started.put(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.setJobDescription(marker)
      try sc.parallelize(Seq(0), 1).count() finally sc.setJobDescription(null)
      def next() = started.poll(60, TimeUnit.SECONDS)
      var jobs = 0
      var d = next()
      while (d != null && d != marker) { jobs += 1; d = next() }
      assert(d == marker, "the marker job was not seen")
      (result, jobs)
    } finally sc.removeSparkListener(listener)
  }

  /** The graph of literal (src, dst, weight) triples, in `chunks` chunks. */
  def graph(edges: Seq[(Long, Long, Double)], chunks: Int, name: String = "t"): PropertyGraph =
    PropertyGraph(name, chunks)(edgeList(edges))

  /** Literal (src, dst, weight) triples as an [[EdgeList]]. */
  def edgeList(edges: Seq[(Long, Long, Double)]): EdgeList =
    new EdgeList(edges.map(_._1).toArray, edges.map(_._2).toArray, edges.map(_._3).toArray)

  /** The by-id symmetrization that `EdgeLayout.symmetrize` replaced, the
    * oracle for it: `e` plus its reverses, stably sorted by (src, dst), each
    * (src, dst) run keeping its first edge of every distinct weight under
    * SQL `distinct`'s equality (-0.0 equals 0.0, NaN equals NaN).
    */
  def oracleSymmetrize(e: EdgeList): EdgeList = {
    val s = e.src ++ e.dst
    val d = e.dst ++ e.src
    val w = e.weight ++ e.weight
    def same(a: Double, b: Double) = a == b || (a.isNaN && b.isNaN)
    val keep = s.indices.sortBy(i => (s(i), d(i))) // a stable sort
      .foldLeft(Vector.empty[Int]) { (kept, i) =>
        if (kept.exists(j => s(j) == s(i) && d(j) == d(i) && same(w(j), w(i)))) kept else kept :+ i
      }
    new EdgeList(keep.map(s).toArray, keep.map(d).toArray, keep.map(w).toArray)
  }

  /** A graph's edges, in its layout's (dst, src) order, for the pure-Scala
    * references.
    */
  def collectEdges(g: PropertyGraph): Seq[(Long, Long, Double)] = {
    val e = g.layout.edgeList
    Seq.tabulate(e.size)(i => (e.src(i), e.dst(i), e.weight(i)))
  }

  /** Paper Fig. 1 example graph (final SSSP dists 0,1,2,2,3,4 from V0), in
    * four chunks, so that even this tiny graph runs the multi-chunk path.
    */
  def figure1(): PropertyGraph = graph(figure1Edges, chunks = 4, name = "fig1")

  /** The edges of [[figure1]]. */
  val figure1Edges: Seq[(Long, Long, Double)] = Seq(
    (0L, 1L, 1.0), (0L, 3L, 2.0), (1L, 2L, 1.0),
    (3L, 4L, 2.0), (2L, 4L, 1.0), (4L, 5L, 1.0),
  )

  /** A vertex->value map as a two-column DataFrame. */
  def valuesDF(spark: SparkSession, m: Map[Long, Double], valueCol: String): DataFrame = {
    import spark.implicits._
    m.toSeq.sortBy(_._1).toDF("id", valueCol)
  }

  private val edgeCte =
    "e AS (SELECT CAST(src AS BIGINT) AS s, CAST(dst AS BIGINT) AS d, CAST(weight AS DOUBLE) AS w FROM edges)"

  /** DuckDB SSSP over table `edges`: min path sum per reachable vertex,
    * bounded below `bound` so recursion over cyclic graphs terminates
    * (weights are integral and >= 1 in all generated test graphs).
    */
  def ssspSql(root: Long, bound: Double): String =
    s"""WITH RECURSIVE $edgeCte,
       |walk(v, dist) AS (
       |  SELECT CAST($root AS BIGINT) AS v, CAST(0 AS DOUBLE) AS dist
       |  UNION
       |  SELECT e.d, walk.dist + e.w FROM walk JOIN e ON e.s = walk.v
       |  WHERE walk.dist + e.w < $bound
       |)
       |SELECT v AS id, MIN(dist) AS dist FROM walk GROUP BY v""".stripMargin

  /** DuckDB connected components over tables `edges` (pre-symmetrized) and
    * `verts`: min reachable id per vertex.
    */
  val ccSql: String =
    s"""WITH RECURSIVE $edgeCte,
       |vs AS (SELECT CAST(id AS BIGINT) AS id FROM verts),
       |lab(v, l) AS (
       |  SELECT id, id FROM vs
       |  UNION
       |  SELECT e.d, lab.l FROM lab JOIN e ON e.s = lab.v
       |)
       |SELECT v AS id, MIN(l) AS label FROM lab GROUP BY v""".stripMargin

  /** DuckDB widest path from `root` over table `edges`: max bottleneck per
    * reachable vertex; terminates because widths only come from the finite
    * weight set.
    */
  def wpSql(root: Long): String =
    s"""WITH RECURSIVE $edgeCte,
       |walk(v, wd) AS (
       |  SELECT CAST($root AS BIGINT) AS v, CAST(1e18 AS DOUBLE) AS wd
       |  UNION
       |  SELECT e.d, LEAST(walk.wd, e.w) FROM walk JOIN e ON e.s = walk.v
       |)
       |SELECT v AS id, MAX(wd) AS width FROM walk GROUP BY v""".stripMargin

  /** DuckDB PageRank by `iters` unrolled CTE iterations over `edges` and
    * `verts`, rounded to 4 decimals.
    */
  def prSql(iters: Int): String = {
    val sb = new StringBuilder
    sb.append(s"WITH $edgeCte,\n")
    sb.append("deg AS (SELECT s, COUNT(*) AS c FROM e GROUP BY s),\n")
    sb.append("vs AS (SELECT CAST(id AS BIGINT) AS id FROM verts),\n")
    sb.append("pr0 AS (SELECT id, CAST(1.0 AS DOUBLE) AS r FROM vs)")
    for (i <- 1 to iters) {
      sb.append(s""",
        |pr$i AS (
        |  SELECT vs.id, 0.15 + 0.85 * COALESCE(SUM(m.contrib), 0) AS r
        |  FROM vs LEFT JOIN (
        |    SELECT e.d, p.r / dg.c AS contrib
        |    FROM e JOIN pr${i - 1} p ON p.id = e.s JOIN deg dg ON dg.s = e.s
        |  ) m ON m.d = vs.id
        |  GROUP BY vs.id
        |)""".stripMargin)
    }
    sb.append(s"\nSELECT id, ROUND(r, 4) AS rank FROM pr$iters")
    sb.toString
  }

  /** Max |a(k) - b(k)| over the union of keys (missing keys fail loudly). */
  def maxAbsDiff(a: Map[Long, Double], b: Map[Long, Double]): Double = {
    assert(a.keySet == b.keySet, s"key sets differ: ${a.keySet.diff(b.keySet)} / ${b.keySet.diff(a.keySet)}")
    if (a.isEmpty) 0.0 else a.keysIterator.map(k => math.abs(a(k) - b(k))).max
  }
}
