// Package app is a non-payer, non-store fixture: every rule of
// chargepath can fire here.
package app

import (
	"accountant"
	"cache"
	"store"
)

// Rule 1: spend-state mutation outside internal/accountant.

// Staging returns the restore that replaces the ledger: a restore too.
func stagePayload(b *accountant.Block) {
	_, _ = b.StagePayload(nil) // want `accountant spend state mutates outside internal/accountant`
}

// Telling the block what a restore leaves moves no spend.
func expectPartitions(b *accountant.Block) {
	b.ExpectPartitions(4)
}

// Rule 2: payment outside a designated payer package.

func charge(w accountant.Window) {
	_ = w.Pay(accountant.Laplace(0.1)) // want `ε/RDP charge \(Pay\) outside a designated payer package`
}

func chargeRange(b *accountant.Block) {
	_ = b.PayRange(0, 3, accountant.Laplace(0.1)) // want `ε/RDP charge \(PayRange\) outside a designated payer package`
}

// The rule keys on the payment call, not on what it costs: a Cost built
// anywhere — here a Gaussian one, held in a variable — is still a charge.
func chargeRangeWithCost(b *accountant.Block) {
	c := accountant.Gaussian(2, 1)
	_ = b.PayRange(0, 3, c) // want `ε/RDP charge \(PayRange\) outside a designated payer package`
}

func chargeAllowed(w accountant.Window) {
	//turbo:allow(chargepath) private measurement accountant for a report
	_ = w.Pay(accountant.Laplace(0.1))
}

// Rule 3: cache fills need admission evidence on their path.

func fillUnpaid(c *cache.Exact) {
	c.Put("k", 1) // want `cache fill \(Put\) with no admission result`
}

// A backend write is a fill too, through the interface or the store
// itself.
func fillBackendUnpaid(b store.Backend) {
	_ = b.Set("k", 1) // want `cache fill \(Set\) with no admission result`
}

func fillMemUnpaid(m *store.Mem) {
	_ = m.Set("k", 1) // want `cache fill \(Set\) with no admission result`
}

// A Set on anything but the store is not a cache fill.
type header map[string]string

func (h header) Set(k, v string) { h[k] = v }

func setHeader(h header) { h.Set("Content-Type", "application/json") }

// result carries the Paid field every mechanism result exposes; a call
// returning it is admission evidence.
type result struct {
	Value float64
	Paid  bool
}

func admit() result { return result{Paid: true} }

func fillPaid(c *cache.Exact) {
	r := admit()
	c.Put("k", r.Value)
}

func fillBackendPaid(b store.Backend) {
	r := admit()
	_ = b.Set("k", r.Value)
}

// Evidence through a same-package helper also counts.
func admitViaHelper() result { return admit() }

func fillPaidTransitively(c *cache.Exact) {
	r := admitViaHelper()
	c.Put("k", r.Value)
}

func fillAllowed(c *cache.Exact) {
	//turbo:allow(chargepath) warm-up preload of deterministic entries
	c.Put("k", 1)
}

// An advisory budget check pays nothing, so it is no admission result.

func fillAfterBudgetCheck(b *accountant.Block, c *cache.Exact) {
	if b.HasBudgetRange(0, 3) {
		c.Put("k", 1) // want `cache fill \(Put\) with no admission result`
	}
}
