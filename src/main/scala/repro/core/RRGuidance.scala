package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.PropertyGraph

/** Redundancy-Reduction Guidance — the paper's preprocessing product.
  *
  * `level(v)` is the BFS level at which v is first reached from the roots
  * (Alg. 1's `visited`/`dist`), and `lastIter(v)` the last propagation level
  * at which v receives an update from a just-activated in-neighbor, i.e.
  * `1 + max(level(u))` over reachable in-neighbors u.
  *
  * Vertices never reached keep no entry; [[lastIterOf]] maps them to
  * `maxLevel + 1`, a conservative bound: min/max apps merely start them
  * late (the final verification push fixes any remainder) and arithmetic
  * apps practically never freeze them, so correctness is preserved.
  */
final case class RRGuidance(
    level: Map[Long, Int],
    lastIter: Map[Long, Int],
    maxLevel: Int,
    edgeComputations: Long,
    wallMillis: Long,
) {
  def lastIterOf(v: Long): Int = lastIter.getOrElse(v, maxLevel + 1)
  def levelOf(v: Long): Int = level.getOrElse(v, -1)

  /** DataFrame view (id, level, lastIter) for oracle-style checks. */
  def toDF(g: PropertyGraph): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    g.vertexIds.toSeq.map(v => (v, levelOf(v), lastIterOf(v))).toDF("id", "level", "lastiter")
  }
}

object RRGuidance {

  /** Default root set when no application root is given: all pure sources
    * (in-degree 0); if the graph has none, the smallest vertex id.
    */
  def defaultRoots(g: PropertyGraph): Set[Long] = {
    val sources = g.vertexIds.iterator.filter(v => g.inDeg(v) == 0L).toSet
    if (sources.nonEmpty) sources else Set(g.vertexIds.min)
  }

  /** Run Alg. 1: each BFS frontier is expanded by one push over the edge
    * blocks ([[EdgeOps.push]]); the per-vertex `level`/`lastIter`
    * bookkeeping lives on the driver (same layering as the execution
    * engine). Each reachable vertex enters the frontier exactly once, so
    * total edge work is one pass over the edges reachable from the roots —
    * the paper's "extremely low overhead".
    */
  def generate(g: PropertyGraph, roots: Set[Long]): RRGuidance = {
    val t0 = System.nanoTime()
    val l = g.layout
    val n = l.numVertices
    val level = Array.fill(n)(-1)
    val last = new Array[Int](n) // 0: never touched
    var frontier = roots.toArray.map { r =>
      val i = l.indexOf(r)
      require(i >= 0, s"root $r is not a vertex of ${g.name}")
      i
    }.sorted
    frontier.foreach(level(_) = 0)
    val zeros = new Array[Double](n)
    var iter = 1
    var comps = 0L
    while (frontier.nonEmpty) {
      // All edges out of the frontier: their count is the edge work of this
      // level, the vertices they reach are the touched ones.
      val touched = EdgeOps.push(g, Expand, zeros, frontier)
      comps += touched.edges
      val newly = Array.newBuilder[Int]
      for (i <- 0 until n if touched.received(i)) {
        last(i) = iter // iter only grows
        if (level(i) < 0) { level(i) = iter; newly += i }
      }
      frontier = newly.result()
      iter += 1
    }
    def byId(a: Array[Int], keep: Int => Boolean): Map[Long, Int] =
      a.indices.iterator.filter(i => keep(a(i))).map(i => l.ids(i) -> a(i)).toMap
    val levels = byId(level, _ >= 0)
    val maxLevel = if (levels.isEmpty) 0 else levels.valuesIterator.max
    RRGuidance(levels, byId(last, _ > 0), maxLevel, comps, (System.nanoTime() - t0) / 1000000L)
  }

  /** Frontier expansion as a vertex program: only its edge counts are read. */
  private val Expand = VertexProgram("RRG", AggKind.Min, arith = false, _ => 0.0, _ => false,
    (srcVal, _, _) => srcVal, (m, _) => m, (_, _) => false, 0.0)
}
