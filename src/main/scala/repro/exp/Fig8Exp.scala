package repro.exp

import repro.core.Les3Index
import repro.data.SetGen
import repro.embed._
import repro.partition.L2P

import scala.util.Random

/** Fig. 8 — PTR vs other set-representation techniques on sampled
  * KOSARAK (5%): embedding-construction time, and query latency of the
  * LES³ index built from an L2P partitioning trained on each
  * representation (kNN k=10 and range δ=0.7).
  */
object Fig8Exp {

  final case class Row(method: String, embedMs: Double, knnMs: Double,
                       rangeMs: Double, peKnn: Double)

  def run(sampleSize: Int = 1000, nGroups: Int = 32, k: Int = 10,
          delta: Double = 0.7, nQueries: Int = 100, pairs: Int = 8000,
          seed: Long = 131): Seq[Row] = {
    val p = SetGen.kosarakLite
    val full = SetGen.local(p)
    val rnd = new Random(seed)
    val db: Array[Array[Int]] = Array.fill(sampleSize)(full(rnd.nextInt(full.length)))
    val queries = Harness.sampleQueries(db, nQueries)

    // Embedders; PCA/MDS fit is part of the embedding cost (as in §7.3).
    def embedders: Seq[(String, () => Embedder)] = Seq(
      "PCA" -> (() => PCAEmbedder.fit(db, p.nTokens, new PathTable(p.nTokens).dim)),
      "MDS" -> (() => MDSEmbedder.fit(db, new PathTable(p.nTokens).dim, nLandmarks = 100)),
      "BinaryEnc" -> (() => BinaryEncodingEmbedder(db)),
      "PTR-half" -> (() => new PTRHalfEmbedder(p.nTokens)),
      "PTR" -> (() => new PTREmbedder(p.nTokens)),
    )

    embedders.map { case (name, mk) =>
      val (reps, embedMs) = Harness.timeMs {
        val e = mk()
        e.embedAll(db)
      }
      // The cascade consumes the precomputed representations; paper §7.1
      // notes the small-sample experiment skips min-token initialization.
      val cfg = L2P.Config(targetGroups = nGroups, initGroups = 1, minGroupSize = 20,
        siamese = Harness.paperSiamese(pairs))
      val l2p = L2P.partitionWithReps(db, new PTREmbedder(p.nTokens), reps, cfg)
      val index = new Les3Index(db, l2p.grouping)
      val knnMs = Harness.avgMs(queries.toSeq)(q => index.knn(q, k))
      val rangeMs = Harness.avgMs(queries.toSeq)(q => index.range(q, delta))
      val pe = Harness.meanPeKnn(index, queries.toSeq.take(50), k)
      Row(name, embedMs, knnMs, rangeMs, pe)
    }
  }

  def render(rows: Seq[Row]): String =
    Fmt.table("Fig 8: representation techniques on sampled KOSARAK-lite",
      Seq("method", "embed ms", "kNN(k=10) ms", s"range ms", "PE(kNN)"),
      rows.map(r => Seq(r.method, Fmt.ms(r.embedMs), Fmt.ms(r.knnMs),
                        Fmt.ms(r.rangeMs), Fmt.pct(r.peKnn))))
}
