package repro.bitmap

import scala.collection.mutable.ArrayBuffer

/** A from-scratch Roaring-style compressed bitmap over non-negative ints.
  *
  * The value space is split into 2^16-wide chunks keyed by the high 16 bits.
  * Each chunk is stored either as a sorted array of low-16-bit shorts (when
  * it holds ≤ 4096 values) or as a 1024-word bitset — the same adaptive rule
  * as the Roaring library the paper uses to compress the TGM (§3.1).
  *
  * Mutable: concurrent reads are safe, a write needs exclusive access. Only
  * the operations the TGM needs are exposed: add, contains, cardinality,
  * iteration, and serialized-size accounting (used for the Fig. 11
  * index-size comparison).
  */
final class RoaringLite private (
    private var keys: Array[Int],                 // sorted chunk keys (high bits)
    private var containers: Array[AnyRef],        // Array[Short] | Array[Long]
    private var nChunks: Int
) extends Serializable {

  def this() = this(new Array[Int](4), new Array[AnyRef](4), 0)

  private val ArrayToBitmapThreshold = 4096

  private def chunkIndex(key: Int): Int = {
    // binary search over keys[0, nChunks)
    var lo = 0; var hi = nChunks - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val k = keys(mid)
      if (k == key) return mid
      else if (k < key) lo = mid + 1
      else hi = mid - 1
    }
    -(lo + 1)
  }

  private def insertChunk(pos: Int, key: Int, container: AnyRef): Unit = {
    if (nChunks == keys.length) {
      keys = java.util.Arrays.copyOf(keys, keys.length * 2)
      containers = java.util.Arrays.copyOf(containers, containers.length * 2)
    }
    System.arraycopy(keys, pos, keys, pos + 1, nChunks - pos)
    System.arraycopy(containers, pos, containers, pos + 1, nChunks - pos)
    keys(pos) = key
    containers(pos) = container
    nChunks += 1
  }

  /** Add value `x` (idempotent). */
  def add(x: Int): Unit = {
    require(x >= 0, s"RoaringLite holds non-negative ints, got $x")
    val key = x >>> 16
    val low = x & 0xffff
    val idx = chunkIndex(key)
    if (idx < 0) {
      insertChunk(-(idx + 1), key, Array[Short](low.toShort))
    } else containers(idx) match {
      case arr: Array[Short] =>
        val pos = shortSearch(arr, low)
        if (pos < 0) {
          if (arr.length >= ArrayToBitmapThreshold) {
            // promote to bitmap container
            val words = new Array[Long](1024)
            var i = 0
            while (i < arr.length) { val v = arr(i) & 0xffff; words(v >>> 6) |= (1L << (v & 63)); i += 1 }
            words(low >>> 6) |= (1L << (low & 63))
            containers(idx) = words
          } else {
            val ins = -(pos + 1)
            val next = new Array[Short](arr.length + 1)
            System.arraycopy(arr, 0, next, 0, ins)
            next(ins) = low.toShort
            System.arraycopy(arr, ins, next, ins + 1, arr.length - ins)
            containers(idx) = next
          }
        }
      case words: Array[Long] =>
        words(low >>> 6) |= (1L << (low & 63))
    }
  }

  private def shortSearch(arr: Array[Short], low: Int): Int = {
    var lo = 0; var hi = arr.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val v = arr(mid) & 0xffff
      if (v == low) return mid
      else if (v < low) lo = mid + 1
      else hi = mid - 1
    }
    -(lo + 1)
  }

  /** Membership test. */
  def contains(x: Int): Boolean = {
    if (x < 0) return false
    val idx = chunkIndex(x >>> 16)
    if (idx < 0) return false
    val low = x & 0xffff
    containers(idx) match {
      case arr: Array[Short]  => shortSearch(arr, low) >= 0
      case words: Array[Long] => (words(low >>> 6) & (1L << (low & 63))) != 0
    }
  }

  /** Number of stored values. */
  def cardinality: Long = {
    var total = 0L
    var i = 0
    while (i < nChunks) {
      containers(i) match {
        case arr: Array[Short]  => total += arr.length
        case words: Array[Long] => var w = 0; while (w < words.length) { total += java.lang.Long.bitCount(words(w)); w += 1 }
      }
      i += 1
    }
    total
  }

  /** Serialized size in bytes: per chunk, a 4-byte key + container payload. */
  def sizeBytes: Long = {
    var total = 0L
    var i = 0
    while (i < nChunks) {
      total += 4
      containers(i) match {
        case arr: Array[Short] => total += 2L * arr.length
        case _: Array[Long]    => total += 8L * 1024
      }
      i += 1
    }
    total
  }

  /** All values in ascending order. */
  def toArray: Array[Int] = {
    val out = new ArrayBuffer[Int](cardinality.toInt)
    var i = 0
    while (i < nChunks) {
      val base = keys(i) << 16
      containers(i) match {
        case arr: Array[Short] =>
          var j = 0; while (j < arr.length) { out += (base | (arr(j) & 0xffff)); j += 1 }
        case words: Array[Long] =>
          var w = 0
          while (w < words.length) {
            var bits = words(w)
            while (bits != 0) {
              val bit = java.lang.Long.numberOfTrailingZeros(bits)
              out += (base | (w << 6) | bit)
              bits &= bits - 1
            }
            w += 1
          }
      }
      i += 1
    }
    out.toArray
  }

  /** Count how many values of sorted-distinct `q` are present — the matched
    * token count of Eq. 2, the TGM's hot loop. One pass over `q`: a cursor
    * walks the chunks, and within an array container a second cursor only
    * moves forward, so each token costs a binary search over the entries
    * not yet passed rather than a full [[contains]] lookup.
    */
  def countContained(q: Array[Int]): Int = {
    var c = 0; var i = 0; var ci = 0
    while (i < q.length && q(i) < 0) i += 1
    while (i < q.length && ci < nChunks) {
      val key = q(i) >>> 16
      while (ci < nChunks && keys(ci) < key) ci += 1
      if (ci < nChunks && keys(ci) == key) {
        containers(ci) match {
          case arr: Array[Short] =>
            var j = 0
            while (i < q.length && (q(i) >>> 16) == key) {
              val low = q(i) & 0xffff
              var hi = arr.length
              while (j < hi) {
                val mid = (j + hi) >>> 1
                if ((arr(mid) & 0xffff) < low) j = mid + 1 else hi = mid
              }
              if (j < arr.length && (arr(j) & 0xffff) == low) c += 1
              i += 1
            }
          case words: Array[Long] =>
            while (i < q.length && (q(i) >>> 16) == key) {
              val low = q(i) & 0xffff
              if ((words(low >>> 6) & (1L << (low & 63))) != 0) c += 1
              i += 1
            }
        }
        ci += 1
      } else while (i < q.length && (q(i) >>> 16) == key) i += 1
    }
    c
  }
}

object RoaringLite {
  /** Build from any collection of non-negative ints. */
  def of(values: Iterable[Int]): RoaringLite = {
    val bm = new RoaringLite()
    values.foreach(bm.add)
    bm
  }

  def empty(): RoaringLite = new RoaringLite()
}
