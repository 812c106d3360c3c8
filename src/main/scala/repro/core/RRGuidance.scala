package repro.core

import repro.graph.{PropertyGraph, VertexMap}

/** Redundancy-Reduction Guidance — the paper's preprocessing product.
  *
  * `level(v)` is the BFS level at which v is first reached from the roots
  * (Alg. 1's `visited`/`dist`), and `lastIter(v)` the last propagation level
  * at which v receives an update from a just-activated in-neighbor, i.e.
  * `1 + max(level(u))` over reachable in-neighbors u. Both are dense arrays
  * over the index of the graph the guidance was generated on; `level` and
  * `lastIter` are `Map` views that keep only the vertices reached and
  * touched.
  *
  * Vertices never touched keep no `lastIter` entry; the [[Rulers]] that
  * runs read give them `maxLevel + 1`, a conservative bound: min/max apps
  * merely start them late (the final verification push fixes any
  * remainder) and arithmetic apps practically never freeze them, so
  * correctness is preserved.
  */
final class RRGuidance private (
    graph: String,
    ids: Array[Long],
    numEdges: Long,
    levels: Array[Int],
    lastIters: Array[Int],
    val maxLevel: Int,
    val edgeComputations: Long,
    val wallNanos: Long,
) {
  val level: Map[Long, Int] = new VertexMap(ids, levels(_), levels(_) >= 0)
  val lastIter: Map[Long, Int] = new VertexMap(ids, lastIters(_), lastIters(_) > 0)

  // Built at the first run that reads them; every later run reuses them.
  private lazy val resolved = new Rulers(lastIters, maxLevel)

  /** The resolved `lastIter` of vertex `v`. Fails if `v` is not a vertex. */
  def lastIterOf(v: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, v)
    require(i >= 0, s"$v is not a vertex of $graph")
    resolved.lastIter(i)
  }

  /** The rulers that guide a run on `g`. Fails unless `g` is the graph the
    * guidance was generated on (same vertex ids and edge count), since an
    * index of another graph would misread them.
    */
  private[repro] def rulers(g: PropertyGraph): Rulers = {
    val l = g.layout
    require(l.numEdges == numEdges && java.util.Arrays.equals(l.ids, ids),
      s"the guidance was generated on $graph (${ids.length} vertices, $numEdges edges) and cannot " +
        s"guide a run on ${g.name} (${l.numVertices} vertices, ${l.numEdges} edges)")
    resolved
  }
}

/** A guidance's rulers by dense index, from its `lastIters` (0: never
  * touched): the resolved `lastIter`, its maximum, beyond which an SLFE
  * min/max run only pushes, and start-late's schedule, a stable counting
  * sort of the vertices by `lastIter` (k's at `order(from(k) until from(k + 1))`).
  *
  * Every resolved `lastIter` is at least 1 (a touched vertex's is the BFS
  * iteration, from 1, that last touched it; an untouched one's is
  * `maxLevel + 1`), so it is also finish-early's freeze threshold as it
  * stands: a vertex freezes once `lastIter` computed applies in a row left
  * it unchanged, and a pure source applies once.
  */
private[repro] final class Rulers(lastIters: Array[Int], maxLevel: Int) {
  val lastIter: Array[Int] = lastIters.map(k => if (k > 0) k else maxLevel + 1)
  val maxLastIter: Int = lastIter.foldLeft(0)(math.max)
  private val from = new Array[Int](maxLastIter + 2)
  for (k <- lastIter) from(k + 1) += 1
  for (k <- 1 until from.length) from(k) += from(k - 1)
  private val order = {
    val next = from.clone()
    val out = new Array[Int](lastIter.length)
    for (i <- lastIter.indices) { out(next(lastIter(i))) = i; next(lastIter(i)) += 1 }
    out
  }

  /** Adds the vertices with lastIter `k`, `k <= maxLastIter`, to `into`. */
  def schedule(k: Int, into: java.util.BitSet): Unit = {
    var j = from(k)
    while (j < from(k + 1)) { into.set(order(j)); j += 1 }
  }
}

object RRGuidance {

  /** Default root set when no application root is given: all pure sources
    * (in-degree 0); if the graph has none, the smallest vertex id.
    */
  def defaultRoots(g: PropertyGraph): Set[Long] = {
    val l = g.layout
    val sources = l.ids.indices.iterator.filter(l.inDeg(_) == 0).map(l.ids).toSet
    if (sources.nonEmpty) sources else Set(l.ids(0)) // ids ascend
  }

  /** Run Alg. 1: each BFS frontier is expanded by one push over the edge
    * blocks ([[EdgeOps.push]]); the per-vertex `level`/`lastIter`
    * bookkeeping lives on the driver (same layering as the execution
    * engine) and walks only the vertices the push reached. Each reachable
    * vertex enters the frontier exactly once, so total edge work is one pass
    * over the edges reachable from the roots — the paper's "extremely low
    * overhead".
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
    val touched = new Messages(n)
    var iter = 1
    var comps = 0L
    while (frontier.nonEmpty) {
      // All edges out of the frontier: their count is the edge work of this
      // level, the vertices they reach are the touched ones.
      EdgeOps.push(g, Expand, zeros, frontier, touched)
      comps += touched.edges
      val newly = new Array[Int](touched.receivers)
      var k = 0
      var r = 0
      while (r < touched.receivers) {
        val i = touched.receiver(r)
        last(i) = iter // iter only grows
        if (level(i) < 0) { level(i) = iter; newly(k) = i; k += 1 }
        r += 1
      }
      frontier = java.util.Arrays.copyOf(newly, k)
      iter += 1
    }
    // Level iter - 1 reached no vertex, so the deepest level is iter - 2.
    new RRGuidance(g.name, l.ids, l.numEdges, level, last, math.max(iter - 2, 0), comps,
      System.nanoTime() - t0)
  }

  /** Frontier expansion as a vertex program: only its edge counts are read. */
  private val Expand = VertexProgram("RRG", AggKind.Min, _ => 0.0, _ => false,
    (srcVal, _, _) => srcVal, (m, _) => m, (_, _) => false)
}
