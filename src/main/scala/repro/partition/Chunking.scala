package repro.partition

/** Gemini-style chunking partitioning (paper §3.1/§3.6): the vertex id space
  * is cut into `parts` contiguous ranges whose edge counts are balanced.
  * SLFE inherits this scheme unchanged — the paper's inter-node balance
  * (Fig. 10b) rests on it.
  */
object Chunking {

  /** One contiguous vertex range assigned to a node. */
  final case class Chunk(part: Int, vertices: Vector[Long], edges: Long)

  /** Greedy sweep over the vertices `0 until n` in order, closing a chunk
    * when it reaches the target edge share. Returns `parts + 1` starts:
    * chunk `p` holds `starts(p) until starts(p + 1)`. Every vertex lands in
    * exactly one chunk; later parts absorb any remainder.
    */
  def cut(n: Int, degree: Int => Long, parts: Int): Array[Int] = {
    require(parts > 0)
    var totalEdges = 0L
    var v = 0
    while (v < n) { totalEdges += degree(v); v += 1 }
    val starts = new Array[Int](parts + 1)
    var used = 0L
    v = 0
    for (p <- 0 until parts) {
      val remainingParts = parts - p
      val target = math.max(1L, (totalEdges - used + remainingParts - 1) / remainingParts)
      var e = 0L
      // Last part takes everything left; others stop at their target.
      while (v < n && (p == parts - 1 || e < target)) { e += degree(v); v += 1 }
      used += e
      starts(p + 1) = v
    }
    starts
  }

  /** [[cut]] over `vertexIds` in id order, with their degrees. */
  def partition(vertexIds: Seq[Long], degreeOf: Long => Long, parts: Int): Vector[Chunk] = {
    val sorted = vertexIds.toArray.sorted
    val degrees = sorted.map(degreeOf)
    val starts = cut(sorted.length, degrees(_), parts)
    Vector.tabulate(parts)(p =>
      Chunk(p, sorted.slice(starts(p), starts(p + 1)).toVector, degrees.slice(starts(p), starts(p + 1)).sum))
  }

  /** Max part edge-load over mean — 1.0 is perfect balance. */
  def imbalance(chunks: Seq[Chunk]): Double = {
    val loads = chunks.map(_.edges.toDouble)
    val mean = loads.sum / loads.size
    if (mean == 0) 1.0 else loads.max / mean
  }
}
