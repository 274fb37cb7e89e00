package repro.embed

import scala.util.Random

/** Sparse principal component analysis over the set/token incidence matrix
  * (the §7.3 PCA comparator, built from scratch).
  *
  * Sets are n-hot rows of X ∈ {0,1}^{n×|T|}; the top `dim` eigenvectors of
  * the covariance C = XᵀX/n − μμᵀ are found by power iteration with
  * Gram–Schmidt deflation. All products use the sparsity of X, so cost is
  * O(iters · dim · nnz) — still far heavier than PTR, which is exactly the
  * gap Fig. 8 measures.
  */
final class PCAEmbedder private (components: Array[Array[Double]],
                                 mean: Array[Double]) extends Embedder {
  def name = "PCA"
  def dim: Int = components.length

  // component · μ, precomputed so embedding stays O(|S| · dim)
  private val meanDots: Array[Double] = components.map { comp =>
    var mdot = 0.0
    var t = 0
    while (t < comp.length) { mdot += comp(t) * mean(t); t += 1 }
    mdot
  }

  def embed(tokens: Array[Int]): Array[Double] = {
    val out = new Array[Double](dim)
    var j = 0
    while (j < dim) {
      val comp = components(j)
      var s = 0.0
      var i = 0
      while (i < tokens.length) { s += comp(tokens(i)); i += 1 }
      out(j) = s - meanDots(j) // projection of (x − μ)
      j += 1
    }
    out
  }
}

object PCAEmbedder {

  /** Fit on `db` with token universe size `nTokens`. */
  def fit(db: collection.IndexedSeq[Array[Int]], nTokens: Int, dim: Int,
          iters: Int = 30, seed: Long = 31): PCAEmbedder = {
    val n = db.length
    require(n > 0 && nTokens > 0)
    val mean = new Array[Double](nTokens)
    for (s <- db; t <- s) mean(t) += 1.0
    var t = 0
    while (t < nTokens) { mean(t) /= n; t += 1 }

    val rnd = new Random(seed)
    val comps = new Array[Array[Double]](math.min(dim, nTokens))

    def matvec(v: Array[Double]): Array[Double] = {
      // C v = XᵀX v / n − μ (μ·v)
      val out = new Array[Double](nTokens)
      for (s <- db) {
        var dot = 0.0
        var i = 0
        while (i < s.length) { dot += v(s(i)); i += 1 }
        i = 0
        while (i < s.length) { out(s(i)) += dot; i += 1 }
      }
      var mv = 0.0
      var j = 0
      while (j < nTokens) { mv += mean(j) * v(j); j += 1 }
      j = 0
      while (j < nTokens) { out(j) = out(j) / n - mean(j) * mv; j += 1 }
      out
    }

    def normalize(v: Array[Double]): Double = {
      var norm = 0.0
      var j = 0
      while (j < v.length) { norm += v(j) * v(j); j += 1 }
      norm = math.sqrt(norm)
      if (norm > 1e-12) { j = 0; while (j < v.length) { v(j) /= norm; j += 1 } }
      norm
    }

    var c = 0
    while (c < comps.length) {
      val v = Array.fill(nTokens)(rnd.nextGaussian())
      var it = 0
      while (it < iters) {
        val w = matvec(v)
        // deflate against previously-found components
        var p = 0
        while (p < c) {
          val prev = comps(p)
          var dot = 0.0
          var j = 0
          while (j < nTokens) { dot += w(j) * prev(j); j += 1 }
          j = 0
          while (j < nTokens) { w(j) -= dot * prev(j); j += 1 }
          p += 1
        }
        normalize(w)
        System.arraycopy(w, 0, v, 0, nTokens)
        it += 1
      }
      comps(c) = v
      c += 1
    }
    new PCAEmbedder(comps, mean)
  }
}
