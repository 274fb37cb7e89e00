package repro.embed

import repro.core.SetOps
import scala.util.Random

/** Landmark classical MDS (§7.3 comparator; the paper cites De Silva &
  * Tenenbaum's landmark/sparse MDS). Built from scratch:
  *
  *  1. pick L landmark sets;
  *  2. double-center the L×L squared-distance matrix (distance = 1 − Jaccard)
  *     and eigendecompose it with a cyclic Jacobi solver;
  *  3. landmark coordinates come from the top `dim` eigenpairs; any other
  *     set is placed by distance-based triangulation against the landmarks.
  *
  * Embedding a set costs L Jaccard computations + an L×dim product — orders
  * of magnitude above PTR's O(|S|·h), as Fig. 8 reports.
  */
final class MDSEmbedder private (landmarks: Array[Array[Int]],
                                 pseudoInv: Array[Array[Double]], // dim × L rows vᵢᵀ/√λᵢ
                                 meanSqDist: Array[Double]) extends Embedder {
  def name = "MDS"
  def dim: Int = pseudoInv.length

  def embed(tokens: Array[Int]): Array[Double] = {
    val l = landmarks.length
    val deltaSq = new Array[Double](l)
    var i = 0
    while (i < l) {
      val d = 1.0 - SetOps.jaccard(tokens, landmarks(i))
      deltaSq(i) = d * d
      i += 1
    }
    val out = new Array[Double](dim)
    var j = 0
    while (j < dim) {
      val row = pseudoInv(j)
      var s = 0.0
      i = 0
      while (i < l) { s += row(i) * (meanSqDist(i) - deltaSq(i)); i += 1 }
      out(j) = 0.5 * s
      j += 1
    }
    out
  }
}

object MDSEmbedder {

  /** Cyclic Jacobi eigendecomposition of a symmetric matrix; returns
    * (eigenvalues, eigenvectors as columns), unsorted.
    */
  private[embed] def jacobi(aIn: Array[Array[Double]], sweeps: Int = 30): (Array[Double], Array[Array[Double]]) = {
    val n = aIn.length
    val a = aIn.map(_.clone())
    val v = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    var sweep = 0
    var off = Double.MaxValue
    while (sweep < sweeps && off > 1e-12) {
      off = 0.0
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p)(q)
          off += apq * apq
          if (math.abs(apq) > 1e-14) {
            val theta = (a(q)(q) - a(p)(p)) / (2 * apq)
            val t = math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1)) match {
              case 0.0 => 1.0 // theta == 0 → t = 1
              case x   => x
            }
            val c = 1 / math.sqrt(t * t + 1)
            val s = t * c
            var i = 0
            while (i < n) {
              val aip = a(i)(p); val aiq = a(i)(q)
              a(i)(p) = c * aip - s * aiq
              a(i)(q) = s * aip + c * aiq
              i += 1
            }
            i = 0
            while (i < n) {
              val api = a(p)(i); val aqi = a(q)(i)
              a(p)(i) = c * api - s * aqi
              a(q)(i) = s * api + c * aqi
              val vip = v(i)(p); val viq = v(i)(q)
              v(i)(p) = c * vip - s * viq
              v(i)(q) = s * vip + c * viq
              i += 1
            }
          }
          q += 1
        }
        p += 1
      }
      sweep += 1
    }
    (Array.tabulate(n)(i => a(i)(i)), v)
  }

  /** Fit with `nLandmarks` landmarks drawn from `db`. */
  def fit(db: collection.IndexedSeq[Array[Int]], dim: Int, nLandmarks: Int = 100,
          seed: Long = 47): MDSEmbedder = {
    val rnd = new Random(seed)
    val l = math.min(nLandmarks, db.length)
    val idx = rnd.shuffle(db.indices.toVector).take(l)
    val landmarks = idx.map(db(_)).toArray

    val sq = Array.ofDim[Double](l, l)
    for (i <- 0 until l; j <- i + 1 until l) {
      val d = 1.0 - SetOps.jaccard(landmarks(i), landmarks(j))
      sq(i)(j) = d * d
      sq(j)(i) = d * d
    }
    val rowMean = sq.map(r => r.sum / l)
    val totalMean = rowMean.sum / l
    val b = Array.tabulate(l, l)((i, j) => -0.5 * (sq(i)(j) - rowMean(i) - rowMean(j) + totalMean))

    val (eigVals, eigVecs) = jacobi(b)
    val order = eigVals.indices.sortBy(i => -eigVals(i)).take(math.min(dim, l))
    val pseudoInv = order.toArray.map { e =>
      val lam = math.max(eigVals(e), 1e-12)
      Array.tabulate(l)(i => eigVecs(i)(e) / math.sqrt(lam))
    }
    new MDSEmbedder(landmarks, pseudoInv, rowMean)
  }
}
