package repro.exp

import repro.baselines.{BruteForce, DualTrans, InvIdx}
import repro.core.SimilarityIndex
import repro.data.SetGen
import repro.io.IOModel

/** Fig. 12 — memory-based comparison of LES³ vs DualTrans, InvIdx and
  * brute force for range queries (δ sweep) and kNN queries (k sweep).
  */
object Fig12Exp {

  final case class Row(dataset: String, method: String, query: String,
                       param: Double, cpuMs: Double, ioMs: Double)

  /** All four engines over one database under one [[IOModel]], in row
    * order; the last, brute force, is the reference of [[crossCheck]].
    */
  def buildEngines(db: Array[Array[Int]], nTokens: Int, nGroups: Int,
                   io: IOModel, pairs: Int = 20000,
                   restarts: Int = 3): Seq[(String, SimilarityIndex)] = {
    val built = Harness.buildLes3(db, nTokens, nGroups, pairs, io, restarts)
    Seq("LES3" -> built.index, "DualTrans" -> new DualTrans(db, 16, io),
        "InvIdx" -> new InvIdx(db, io), "BruteForce" -> new BruteForce(db, io = io))
  }

  /** Sweep both query types over all engines; also asserts that all
    * methods return identical result similarities on the first few queries
    * (exactness cross-check).
    */
  def sweep(dataset: String, engines: Seq[(String, SimilarityIndex)], queries: Seq[Array[Int]],
            deltas: Seq[Double], ks: Seq[Int]): Seq[Row] = {
    crossCheck(engines, queries.take(5))
    val rangeRows = deltas.flatMap { d =>
      engines.map { case (name, e) => measure(dataset, name, "range", d, queries)(q => e.range(q, d).stats.ioMs) }
    }
    val knnRows = ks.flatMap { k =>
      engines.map { case (name, e) => measure(dataset, name, "knn", k, queries)(q => e.knn(q, k).stats.ioMs) }
    }
    rangeRows ++ knnRows
  }

  private def measure(dataset: String, method: String, query: String, param: Double,
                      queries: Seq[Array[Int]])(run: Array[Int] => Double): Row = {
    var ioTotal = 0.0
    val t0 = System.nanoTime()
    queries.foreach(q => ioTotal += run(q))
    val cpu = (System.nanoTime() - t0) / 1e6 / queries.size
    Row(dataset, method, query, param, cpu, ioTotal / queries.size)
  }

  /** All methods must agree with the last engine (brute force) on range
    * hits and on kNN similarity profiles.
    */
  def crossCheck(engines: Seq[(String, SimilarityIndex)], queries: Seq[Array[Int]],
                 delta: Double = 0.6, k: Int = 10): Unit = {
    val brute = engines.last._2
    for (q <- queries) {
      val expected = brute.range(q, delta).hits.map(h => (h.sid, math.round(h.sim * 1e9))).sortBy(_._1)
      val expKnn = brute.knn(q, k).hits.map(h => math.round(h.sim * 1e9)).sorted
      for ((name, e) <- engines.init) {
        val gotNorm = e.range(q, delta).hits.map(h => (h.sid, math.round(h.sim * 1e9))).sortBy(_._1)
        require(gotNorm == expected, s"$name range mismatch vs brute force")
        val gotSims = e.knn(q, k).hits.map(h => math.round(h.sim * 1e9)).sorted
        require(gotSims == expKnn, s"$name knn similarity profile mismatch vs brute force")
      }
    }
  }

  def run(profiles: Seq[SetGen.Profile] =
            Seq(SetGen.kosarakLite, SetGen.livejLite, SetGen.aolLite),
          deltas: Seq[Double] = Seq(0.9, 0.8, 0.7, 0.6, 0.5),
          ks: Seq[Int] = Seq(1, 5, 10, 20, 50),
          nQueries: Int = 200): Seq[Row] =
    profiles.flatMap { p =>
      val db = SetGen.local(p)
      val engines = buildEngines(db, p.nTokens, Harness.defaultGroups(p.nSets), IOModel.InMemory)
      sweep(p.name, engines, Harness.sampleQueries(db, nQueries).toSeq, deltas, ks)
    }

  def render(title: String, rows: Seq[Row]): String =
    Fmt.table(title,
      Seq("dataset", "method", "query", "param", "cpu ms", "sim-io ms", "total ms"),
      rows.map(r => Seq(r.dataset, r.method, r.query, r.param.toString,
                        Fmt.ms(r.cpuMs), Fmt.ms(r.ioMs), Fmt.ms(r.cpuMs + r.ioMs))))
}
