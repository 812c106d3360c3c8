package repro.partition

/** Gemini-style chunking partitioning (paper §3.1/§3.6): the vertex id space
  * is cut into `parts` contiguous ranges whose edge counts are balanced.
  * SLFE inherits this scheme unchanged — the paper's inter-node balance
  * (Fig. 10b) rests on it.
  */
object Chunking {

  /** One contiguous vertex range assigned to a node. */
  final case class Chunk(part: Int, vertices: Vector[Long], edges: Long)

  /** Greedy sweep over vertices in id order, closing a chunk when it
    * reaches the target edge share. Every vertex lands in exactly one
    * chunk; later parts absorb any remainder.
    */
  def partition(vertexIds: Seq[Long], degreeOf: Long => Long, parts: Int): Vector[Chunk] = {
    require(parts > 0)
    val sorted = vertexIds.sorted
    val totalEdges = sorted.iterator.map(degreeOf).sum
    val result = Vector.newBuilder[Chunk]
    var idx = 0
    var used = 0L
    for (p <- 0 until parts) {
      val remainingParts = parts - p
      val target = math.max(1L, (totalEdges - used + remainingParts - 1) / remainingParts)
      val vs = Vector.newBuilder[Long]
      var e = 0L
      // Last part takes everything left; others stop at their target.
      while (idx < sorted.size && (p == parts - 1 || e < target)) {
        val v = sorted(idx)
        vs += v
        e += degreeOf(v)
        idx += 1
      }
      used += e
      result += Chunk(p, vs.result(), e)
    }
    result.result()
  }

  /** Max part edge-load over mean — 1.0 is perfect balance. */
  def imbalance(chunks: Seq[Chunk]): Double = {
    val loads = chunks.map(_.edges.toDouble)
    val mean = loads.sum / loads.size
    if (mean == 0) 1.0 else loads.max / mean
  }
}
