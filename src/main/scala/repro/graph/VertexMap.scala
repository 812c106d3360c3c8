package repro.graph

import scala.collection.immutable.AbstractMap

/** Read-only `Map` view of a dense per-vertex array: index `i` stands for
  * vertex `ids(i)` (`ids` ascending), and only indices where `present(i)`
  * holds are keys. Lookups binary-search `ids`; nothing is copied, so a view
  * costs no more than the arrays it reads.
  */
final class VertexMap[V](ids: Array[Long], value: Int => V, present: Int => Boolean)
    extends AbstractMap[Long, V] {

  private def indexOf(key: Long): Int = java.util.Arrays.binarySearch(ids, key)

  def get(key: Long): Option[V] = {
    val i = indexOf(key)
    if (i >= 0 && present(i)) Some(value(i)) else None
  }

  override def contains(key: Long): Boolean = {
    val i = indexOf(key)
    i >= 0 && present(i)
  }

  def iterator: Iterator[(Long, V)] = ids.indices.iterator.filter(present).map(i => ids(i) -> value(i))

  override lazy val size: Int = ids.indices.count(present)

  override def knownSize: Int = size

  def removed(key: Long): Map[Long, V] = Map.from(this) - key

  def updated[V1 >: V](key: Long, v: V1): Map[Long, V1] = Map.from[Long, V1](this).updated(key, v)
}

object VertexMap {

  /** Every vertex is a key. */
  def apply[V](ids: Array[Long], value: Int => V): VertexMap[V] = new VertexMap(ids, value, _ => true)

  /** Final vertex values of a run: one `Double` per vertex, in `ids` order. */
  def dense(ids: Array[Long], values: Array[Double]): VertexMap[Double] = {
    require(ids.length == values.length, s"${values.length} values for ${ids.length} vertices")
    apply(ids, values(_))
  }
}
